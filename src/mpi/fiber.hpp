// Ranks as fibers: every rank body of a job runs on the thread that called
// mpi::run_job, as a cooperatively scheduled fiber (POSIX ucontext).
//
// Fibers are resumed round-robin in rank order. A fiber runs until it yields,
// and it yields only inside the library, exactly where a single-threaded MPI
// progress engine would spin:
//   * wait()  — the rank cannot continue until shared state changes (a
//     blocking receive, a phase barrier, an RMA epoch lock);
//   * yield() — the rank polled and found nothing (MPI_Test, MPI_Iprobe, an
//     application's own polling loop); it may still run on its next turn.
// Code that changes what a waiting rank waits for — a delivery, a rendezvous
// completion, a barrier release, a lock release, an abort — calls changed().
// When every live fiber has waited for one full round and nothing changed,
// no fiber can ever proceed: run() unwinds them all and throws an Error that
// names each rank and what it waits on.
//
// Precondition: a rank never yields or waits inside a `catch` handler. The
// C++ runtime keeps the caught-exception stack per thread, so a handler that
// is suspended while another fiber throws and catches would see that
// fiber's exception state.
//
// Stacks are 8 MiB (the pthread default), mapped MAP_NORESERVE below a
// PROT_NONE guard page, pooled per OS thread and unmapped when it exits.
#pragma once

#include <functional>
#include <string>

namespace cbmpi::mpi::fiber {

/// Runs body(0) ... body(count - 1) as fibers on the calling thread and
/// returns once every one has returned. An exception escaping a body is
/// rethrown after all fibers finished (the lowest index wins). Throws Error
/// on deadlock, after unwinding every fiber.
void run(int count, const std::function<void(int)>& body);

/// Poll: hands the thread to the next fiber. No-op outside run(). Like
/// wait(), throws AbortedError once run() is unwinding a deadlocked job.
void yield();

/// Block: hands the thread to the next fiber and marks this one as waiting
/// on `what`, which describes the wait for a deadlock report. The caller
/// re-checks its condition on return. No-op outside run().
void wait(const std::function<std::string()>& what);

/// Records that state a waiting fiber may depend on has changed.
void changed();

}  // namespace cbmpi::mpi::fiber
