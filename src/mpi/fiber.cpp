#include "mpi/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <sstream>
#include <vector>

#include "common/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define CBMPI_FIBER_ASAN 1
#endif

namespace cbmpi::mpi::fiber {

namespace {

constexpr std::size_t kStackBytes = std::size_t{8} << 20;

std::size_t guard_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// This OS thread's fiber stacks that no fiber currently runs on. Each is
/// kStackBytes usable bytes above a PROT_NONE guard page; a pointer to one
/// names its lowest usable byte.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (std::byte* stack : free_)
      munmap(stack - guard_bytes(), guard_bytes() + kStackBytes);
  }

  std::byte* acquire() {
    if (!free_.empty()) {
      std::byte* stack = free_.back();
      free_.pop_back();
      return stack;
    }
    // Keep room for every stack ever mapped, so release() never allocates.
    if (free_.capacity() < mapped_ + 1) free_.reserve(2 * (mapped_ + 1));
    void* base = mmap(nullptr, guard_bytes() + kStackBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (base == MAP_FAILED) throw Error("cannot map an 8 MiB fiber stack");
    if (mprotect(base, guard_bytes(), PROT_NONE) != 0) {
      munmap(base, guard_bytes() + kStackBytes);
      throw Error("cannot protect a fiber stack's guard page");
    }
    ++mapped_;
    return static_cast<std::byte*>(base) + guard_bytes();
  }

  void release(std::byte* stack) noexcept {
#ifdef CBMPI_FIBER_ASAN
    // A fiber unwound by an exception may leave its frames' redzones behind.
    ASAN_UNPOISON_MEMORY_REGION(stack, kStackBytes);
#endif
    free_.push_back(stack);
  }

 private:
  std::vector<std::byte*> free_;
  std::size_t mapped_ = 0;
};

thread_local StackPool t_stacks;

struct Fiber {
  Fiber() = default;
  ~Fiber() {
    if (stack != nullptr) t_stacks.release(stack);
  }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ucontext_t context{};
  std::byte* stack = nullptr;
  int index = 0;
  bool done = false;
  /// Describes the wait while suspended in wait(); null otherwise.
  const std::function<std::string()>* what = nullptr;
  std::exception_ptr error;
#ifdef CBMPI_FIBER_ASAN
  void* fake_stack = nullptr;
#endif
};

class Scheduler;
thread_local Scheduler* t_scheduler = nullptr;

class Scheduler {
 public:
  Scheduler(int count, const std::function<void(int)>& body)
      : body_(&body), fibers_(static_cast<std::size_t>(count)) {
    for (int i = 0; i < count; ++i) {
      Fiber& f = fibers_[static_cast<std::size_t>(i)];
      f.index = i;
      f.stack = t_stacks.acquire();
      getcontext(&f.context);
      f.context.uc_stack.ss_sp = f.stack;
      f.context.uc_stack.ss_size = kStackBytes;
      f.context.uc_link = nullptr;
      makecontext(&f.context, &Scheduler::entry, 0);
    }
  }
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Round-robin until every fiber returned; then reports a deadlock or the
  /// first escaped exception.
  void run() {
    // A body that itself launches a job runs a scheduler inside a fiber.
    Scheduler* const outer = t_scheduler;
    t_scheduler = this;
    std::size_t live = fibers_.size();
    // Consecutive resumes that ended in wait() without changing anything.
    std::size_t quiet = 0;
    while (live > 0) {
      for (Fiber& f : fibers_) {
        if (f.done) continue;
        const std::uint64_t before = changes_;
        resume(f);
        if (f.done) {
          --live;
          quiet = 0;
          continue;
        }
        quiet = f.what != nullptr && changes_ == before ? quiet + 1 : 0;
        // Every live fiber re-checked its condition against the same state.
        if (quiet >= live && !unwinding_) {
          deadlock_ = deadlock_report();
          unwinding_ = true;
        }
      }
    }
    t_scheduler = outer;
    if (unwinding_) throw Error(deadlock_);
    for (const Fiber& f : fibers_)
      if (f.error) std::rethrow_exception(f.error);
  }

  bool in_fiber() const { return current_ != nullptr; }

  /// Switches from the running fiber back to run().
  void suspend(const std::function<std::string()>* what) {
    Fiber& f = *current_;
    f.what = what;
#ifdef CBMPI_FIBER_ASAN
    __sanitizer_start_switch_fiber(&f.fake_stack, main_bottom_, main_size_);
#endif
    swapcontext(&f.context, &main_);
#ifdef CBMPI_FIBER_ASAN
    __sanitizer_finish_switch_fiber(f.fake_stack, &main_bottom_, &main_size_);
#endif
    f.what = nullptr;
    if (unwinding_)
      throw AbortedError("job aborted: deadlock, every rank was blocked");
  }

  void note_change() { ++changes_; }

 private:
  static void entry() {
    Scheduler& self = *t_scheduler;
    Fiber& f = *self.current_;
#ifdef CBMPI_FIBER_ASAN
    __sanitizer_finish_switch_fiber(nullptr, &self.main_bottom_, &self.main_size_);
#endif
    try {
      (*self.body_)(f.index);
    } catch (...) {
      f.error = std::current_exception();
    }
    f.done = true;
#ifdef CBMPI_FIBER_ASAN
    // A null save slot tells ASan this fiber's fake stack can go.
    __sanitizer_start_switch_fiber(nullptr, self.main_bottom_, self.main_size_);
#endif
    setcontext(&self.main_);
  }

  void resume(Fiber& f) {
    current_ = &f;
#ifdef CBMPI_FIBER_ASAN
    __sanitizer_start_switch_fiber(&main_fake_stack_, f.stack, kStackBytes);
#endif
    swapcontext(&main_, &f.context);
#ifdef CBMPI_FIBER_ASAN
    __sanitizer_finish_switch_fiber(main_fake_stack_, nullptr, nullptr);
#endif
    current_ = nullptr;
  }

  std::string deadlock_report() const {
    std::ostringstream os;
    os << "deadlock: every running rank is blocked and none can proceed:";
    const char* sep = " ";
    for (const Fiber& f : fibers_) {
      if (f.done) continue;
      os << sep << "rank " << f.index << " waits for " << (*f.what)();
      sep = "; ";
    }
    return os.str();
  }

  const std::function<void(int)>* body_;
  std::vector<Fiber> fibers_;  // never resized: contexts must not move
  Fiber* current_ = nullptr;
  ucontext_t main_{};
  std::uint64_t changes_ = 0;
  bool unwinding_ = false;
  std::string deadlock_;
#ifdef CBMPI_FIBER_ASAN
  void* main_fake_stack_ = nullptr;
  const void* main_bottom_ = nullptr;
  std::size_t main_size_ = 0;
#endif
};

}  // namespace

void run(int count, const std::function<void(int)>& body) {
  if (count <= 0) return;
  Scheduler scheduler(count, body);
  scheduler.run();
}

void yield() {
  if (t_scheduler != nullptr && t_scheduler->in_fiber()) t_scheduler->suspend(nullptr);
}

void wait(const std::function<std::string()>& what) {
  if (t_scheduler != nullptr && t_scheduler->in_fiber()) t_scheduler->suspend(&what);
}

void changed() {
  if (t_scheduler != nullptr) t_scheduler->note_change();
}

}  // namespace cbmpi::mpi::fiber
