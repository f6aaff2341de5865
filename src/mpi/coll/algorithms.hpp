// Collective algorithm primitives (Communicator member templates).
//
// Every `*_over` primitive runs one concrete algorithm over an arbitrary
// sorted list of communicator ranks — the same code serves the flat path
// (list = all ranks) and the phases of the two-level hierarchy (list = one
// locality group, or the group leaders). The caller passes the engine-chosen
// coll::Algo; when that algorithm's structural preconditions do not hold
// (power-of-two list, at least one element per rank, zero-identity reduce
// op), the primitive downgrades deterministically — identically on every
// rank, because the decision depends only on values all ranks share — and
// returns the algorithm that actually ran.
//
// Tag budget: each primitive may use [tag, tag+4) (one kSubTags stride-4
// slice); composite algorithms document their exact usage inline.
//
// This header is included at the bottom of mpi/communicator.hpp and must not
// be included directly anywhere else.
#pragma once

#include "mpi/communicator.hpp"

namespace cbmpi::mpi {

// ---- broadcast ------------------------------------------------------------

// Binomial | FlatTree | VanDeGeijn. VanDeGeijn (uses tags [tag, tag+2))
// needs one payload element per rank; downgrades to Binomial otherwise.
template <typename T>
coll::Algo Communicator::bcast_over(const std::vector<int>& list, std::span<T> data,
                                    int root_pos, int tag, coll::Algo algo) {
  const int m = static_cast<int>(list.size());
  if (m <= 1) return algo;
  if (algo == coll::Algo::VanDeGeijn && data.size() < static_cast<std::size_t>(m))
    algo = coll::Algo::Binomial;

  if (algo == coll::Algo::VanDeGeijn) {
    bcast_vandegeijn_over(list, data, root_pos, tag);
    return algo;
  }

  const int pos = position_in(list);
  if (algo == coll::Algo::FlatTree) {
    if (pos == root_pos) {
      for (int q = 0; q < m; ++q) {
        if (q == root_pos) continue;
        raw_send(std::span<const T>(data.data(), data.size()),
                 list[static_cast<std::size_t>(q)], tag);
      }
    } else {
      raw_recv(data, list[static_cast<std::size_t>(root_pos)], tag);
    }
    return algo;
  }

  // Binomial tree on virtual ranks rooted at 0.
  const int vrank = (pos - root_pos + m) % m;
  auto real = [&](int v) { return list[static_cast<std::size_t>((v + root_pos) % m)]; };

  int mask = 1;
  while (mask < m) {
    if (vrank & mask) {
      raw_recv(data, real(vrank - mask), tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < m)
      raw_send(std::span<const T>(data.data(), data.size()), real(vrank + mask), tag);
    mask >>= 1;
  }
  return coll::Algo::Binomial;
}

// ---- reduce ---------------------------------------------------------------

// Binomial | FlatTree; commutative ops. Only the root's `out` is written.
template <typename T>
coll::Algo Communicator::reduce_over(const std::vector<int>& list,
                                     std::span<const T> in, std::span<T> out,
                                     ReduceOp op, int root_pos, int tag,
                                     coll::Algo algo) {
  const int m = static_cast<int>(list.size());
  const int pos = position_in(list);

  if (algo == coll::Algo::FlatTree && m > 1) {
    if (pos == root_pos) {
      std::vector<T> acc(in.begin(), in.end());
      std::vector<T> incoming(in.size());
      // Fixed list order keeps the combination order identical across runs.
      for (int q = 0; q < m; ++q) {
        if (q == root_pos) continue;
        raw_recv(std::span<T>(incoming), list[static_cast<std::size_t>(q)], tag);
        apply_reduce<T>(op, incoming, acc);
      }
      CBMPI_REQUIRE(out.size() >= in.size(), "reduce output buffer too small");
      std::copy(acc.begin(), acc.end(), out.begin());
    } else {
      raw_send(in, list[static_cast<std::size_t>(root_pos)], tag);
    }
    return algo;
  }

  const int vrank = (pos - root_pos + m) % m;
  std::vector<T> acc(in.begin(), in.end());
  if (m > 1) {
    auto real = [&](int v) { return list[static_cast<std::size_t>((v + root_pos) % m)]; };
    std::vector<T> incoming(in.size());

    int mask = 1;
    while (mask < m) {
      if (vrank & mask) {
        raw_send(std::span<const T>(acc), real(vrank - mask), tag);
        break;
      }
      const int child = vrank + mask;
      if (child < m) {
        raw_recv(std::span<T>(incoming), real(child), tag);
        apply_reduce<T>(op, incoming, acc);
      }
      mask <<= 1;
    }
  }
  if (vrank == 0) {
    CBMPI_REQUIRE(out.size() >= in.size(), "reduce output buffer too small");
    std::copy(acc.begin(), acc.end(), out.begin());
  }
  return coll::Algo::Binomial;
}

// ---- allreduce ------------------------------------------------------------

// RecursiveDoubling (power-of-two lists) | Rabenseifner (power-of-two lists,
// zero-identity ops; tags [tag, tag+2)) | ReduceBcast (any list; tags
// [tag, tag+2), the bcast leg re-enters the engine for its own algorithm).
template <typename T>
coll::Algo Communicator::allreduce_over(const std::vector<int>& list,
                                        std::span<const T> in, std::span<T> out,
                                        ReduceOp op, int tag, coll::Algo algo) {
  const int m = static_cast<int>(list.size());
  CBMPI_REQUIRE(out.size() >= in.size(), "allreduce output buffer too small");
  if (m == 1) {
    std::copy(in.begin(), in.end(), out.begin());
    return algo;
  }
  const bool pow2 = detail::is_power_of_two(static_cast<std::size_t>(m));
  // Rabenseifner pads the vector with value-initialized elements, which is
  // only an identity for zero-identity operators.
  const bool zero_identity = op == ReduceOp::Sum || op == ReduceOp::BitOr ||
                             op == ReduceOp::LogicalOr;
  if (algo == coll::Algo::Rabenseifner && !(pow2 && zero_identity))
    algo = pow2 ? coll::Algo::RecursiveDoubling : coll::Algo::ReduceBcast;
  if (algo == coll::Algo::RecursiveDoubling && !pow2)
    algo = coll::Algo::ReduceBcast;

  if (algo == coll::Algo::Rabenseifner) {
    allreduce_rabenseifner_over(list, in, out, op, tag);
    return algo;
  }
  if (algo == coll::Algo::RecursiveDoubling) {
    const int pos = position_in(list);
    std::vector<T> acc(in.begin(), in.end());
    std::vector<T> incoming(in.size());
    for (int mask = 1; mask < m; mask <<= 1) {
      const int partner = list[static_cast<std::size_t>(pos ^ mask)];
      raw_sendrecv(std::span<const T>(acc), partner, std::span<T>(incoming), partner,
                   tag);
      apply_reduce<T>(op, incoming, acc);
    }
    std::copy(acc.begin(), acc.end(), out.begin());
    return algo;
  }
  reduce_over(list, in, out, op, 0, tag, coll::Algo::Binomial);
  bcast_over(list, out.subspan(0, in.size()), 0, tag + 1,
             pick(coll::Coll::Bcast, in.size() * sizeof(T), m));
  return coll::Algo::ReduceBcast;
}

// ---- allgather ------------------------------------------------------------

// Ring | GatherBcast (linear gather to the list head + binomial bcast of the
// full buffer; uses tags [tag, tag+2)).
template <typename T>
coll::Algo Communicator::allgather_over(const std::vector<int>& list,
                                        std::span<const T> mine, std::span<T> all,
                                        int tag, coll::Algo algo) {
  const int m = static_cast<int>(list.size());
  const std::size_t block = mine.size();
  CBMPI_REQUIRE(all.size() >= block * static_cast<std::size_t>(m),
                "allgather output buffer too small");
  const int pos = position_in(list);
  T* const my_slot = all.data() + block * static_cast<std::size_t>(pos);
  if (my_slot != mine.data()) std::copy(mine.begin(), mine.end(), my_slot);
  if (m == 1) return algo;

  if (algo == coll::Algo::GatherBcast) {
    if (pos == 0) {
      for (int q = 1; q < m; ++q) {
        raw_recv(std::span<T>(all.data() + block * static_cast<std::size_t>(q), block),
                 list[static_cast<std::size_t>(q)], tag);
      }
    } else {
      raw_send(mine, list[0], tag);
    }
    bcast_over(list, all.subspan(0, block * static_cast<std::size_t>(m)), 0, tag + 1,
               coll::Algo::Binomial);
    return algo;
  }

  // Ring: in step s we forward the block received in step s-1. Per-sender
  // FIFO matching makes one tag safe for all steps.
  const int right = list[static_cast<std::size_t>((pos + 1) % m)];
  const int left = list[static_cast<std::size_t>((pos - 1 + m) % m)];
  for (int s = 0; s < m - 1; ++s) {
    const std::size_t send_pos = static_cast<std::size_t>((pos - s + m) % m);
    const std::size_t recv_pos = static_cast<std::size_t>((pos - s - 1 + m) % m);
    raw_sendrecv(std::span<const T>(all.data() + block * send_pos, block), right,
                 std::span<T>(all.data() + block * recv_pos, block), left, tag);
  }
  return coll::Algo::Ring;
}

template <typename T>
void Communicator::allgatherv_over(const std::vector<int>& list,
                                   std::span<const T> mine, std::span<T> all,
                                   std::span<const int> counts,
                                   std::span<const int> displs, int tag) {
  const int m = static_cast<int>(list.size());
  const int pos = position_in(list);
  CBMPI_REQUIRE(counts.size() == static_cast<std::size_t>(m) &&
                    displs.size() == static_cast<std::size_t>(m),
                "allgatherv counts/displs must have one entry per position");
  CBMPI_REQUIRE(mine.size() == static_cast<std::size_t>(counts[static_cast<std::size_t>(pos)]),
                "allgatherv input size mismatch");
  T* const my_slot = all.data() + static_cast<std::size_t>(displs[static_cast<std::size_t>(pos)]);
  if (my_slot != mine.data()) std::copy(mine.begin(), mine.end(), my_slot);
  if (m == 1) return;

  const int right = list[static_cast<std::size_t>((pos + 1) % m)];
  const int left = list[static_cast<std::size_t>((pos - 1 + m) % m)];
  for (int s = 0; s < m - 1; ++s) {
    const auto send_pos = static_cast<std::size_t>((pos - s + m) % m);
    const auto recv_pos = static_cast<std::size_t>((pos - s - 1 + m) % m);
    raw_sendrecv(std::span<const T>(all.data() + static_cast<std::size_t>(displs[send_pos]),
                                    static_cast<std::size_t>(counts[send_pos])),
                 right,
                 std::span<T>(all.data() + static_cast<std::size_t>(displs[recv_pos]),
                              static_cast<std::size_t>(counts[recv_pos])),
                 left, tag);
  }
}

template <typename T>
void Communicator::bcast_vandegeijn_over(const std::vector<int>& list,
                                         std::span<T> data, int root_pos, int tag) {
  const int m = static_cast<int>(list.size());
  const int pos = position_in(list);
  const std::size_t n = data.size();
  // Block partition of the payload by position.
  std::vector<int> counts(static_cast<std::size_t>(m));
  std::vector<int> displs(static_cast<std::size_t>(m));
  const std::size_t base = n / static_cast<std::size_t>(m);
  const std::size_t rem = n % static_cast<std::size_t>(m);
  std::size_t offset = 0;
  for (int q = 0; q < m; ++q) {
    const std::size_t c = base + (static_cast<std::size_t>(q) < rem ? 1 : 0);
    counts[static_cast<std::size_t>(q)] = static_cast<int>(c);
    displs[static_cast<std::size_t>(q)] = static_cast<int>(offset);
    offset += c;
  }
  // Scatter phase (linear from the root).
  if (pos == root_pos) {
    for (int q = 0; q < m; ++q) {
      if (q == root_pos) continue;
      raw_send(std::span<const T>(data.data() + static_cast<std::size_t>(
                                                    displs[static_cast<std::size_t>(q)]),
                                  static_cast<std::size_t>(counts[static_cast<std::size_t>(q)])),
               list[static_cast<std::size_t>(q)], tag);
    }
  } else {
    raw_recv(std::span<T>(data.data() + static_cast<std::size_t>(
                                            displs[static_cast<std::size_t>(pos)]),
                          static_cast<std::size_t>(counts[static_cast<std::size_t>(pos)])),
             list[static_cast<std::size_t>(root_pos)], tag);
  }
  // Ring allgather of the blocks completes the broadcast.
  allgatherv_over(list,
                  std::span<const T>(data.data() + static_cast<std::size_t>(
                                                       displs[static_cast<std::size_t>(pos)]),
                                     static_cast<std::size_t>(counts[static_cast<std::size_t>(pos)])),
                  data, counts, displs, tag + 1);
}

template <typename T>
void Communicator::reduce_scatter_halving_over(const std::vector<int>& list,
                                               std::span<const T> in,
                                               std::span<T> block_out, ReduceOp op,
                                               int tag) {
  const int m = static_cast<int>(list.size());
  CBMPI_REQUIRE(detail::is_power_of_two(static_cast<std::size_t>(m)),
                "recursive halving requires a power-of-two list");
  const std::size_t block = in.size() / static_cast<std::size_t>(m);
  CBMPI_REQUIRE(in.size() == block * static_cast<std::size_t>(m) &&
                    block_out.size() >= block,
                "reduce_scatter buffer size mismatch");
  const int pos = position_in(list);

  std::vector<T> acc(in.begin(), in.end());
  std::vector<T> incoming(in.size() / 2 + 1);
  std::size_t start = 0;        // in blocks
  std::size_t count = static_cast<std::size_t>(m);
  for (int mask = m >> 1; mask > 0; mask >>= 1) {
    const int partner = list[static_cast<std::size_t>(pos ^ mask)];
    const std::size_t half = count / 2;
    const bool upper = (pos & mask) != 0;
    const std::size_t keep_start = upper ? start + half : start;
    const std::size_t send_start = upper ? start : start + half;
    raw_sendrecv(std::span<const T>(acc.data() + send_start * block, half * block),
                 partner, std::span<T>(incoming.data(), half * block), partner, tag);
    apply_reduce<T>(op, std::span<const T>(incoming.data(), half * block),
                    std::span<T>(acc.data() + keep_start * block, half * block));
    start = keep_start;
    count = half;
  }
  // After log2(m) rounds this rank holds the reduction of block `pos`.
  std::copy(acc.data() + start * block, acc.data() + (start + 1) * block,
            block_out.data());
}

template <typename T>
void Communicator::allreduce_rabenseifner_over(const std::vector<int>& list,
                                               std::span<const T> in, std::span<T> out,
                                               ReduceOp op, int tag) {
  const int m = static_cast<int>(list.size());
  const std::size_t block =
      (in.size() + static_cast<std::size_t>(m) - 1) / static_cast<std::size_t>(m);
  // Pad to m equal blocks with identity-ish zeros (safe for Sum/Or; Min/Max
  // and Prod fall back to recursive doubling at the dispatch site).
  std::vector<T> padded(block * static_cast<std::size_t>(m), T{});
  std::copy(in.begin(), in.end(), padded.begin());
  std::vector<T> my_block(block);
  reduce_scatter_halving_over(list, std::span<const T>(padded),
                              std::span<T>(my_block), op, tag);
  allgather_over(list, std::span<const T>(my_block), std::span<T>(padded), tag + 1,
                 coll::Algo::Ring);
  std::copy(padded.begin(), padded.begin() + static_cast<std::ptrdiff_t>(in.size()),
            out.begin());
}

// ---- alltoall bodies ------------------------------------------------------

// Pairwise exchange: n-1 sendrecv rounds (XOR partners on power-of-two comms,
// shifted ring otherwise). Latency-heavier but never stages data.
template <typename T>
void Communicator::alltoall_pairwise(std::span<const T> send_data,
                                     std::span<T> recv_data, std::size_t block,
                                     int tag) {
  const int n = size();
  const bool pow2 = detail::is_power_of_two(static_cast<std::size_t>(n));
  for (int step = 1; step < n; ++step) {
    const int send_to = pow2 ? (rank() ^ step) : (rank() + step) % n;
    const int recv_from = pow2 ? (rank() ^ step) : (rank() - step + n) % n;
    raw_sendrecv(
        std::span<const T>(send_data.data() + block * static_cast<std::size_t>(send_to),
                           block),
        send_to,
        std::span<T>(recv_data.data() + block * static_cast<std::size_t>(recv_from),
                     block),
        recv_from, tag);
  }
}

// Bruck: ceil(log2(n)) combined-block rounds — fewer, larger messages, at the
// cost of local packing copies. Wins for small blocks.
template <typename T>
void Communicator::alltoall_bruck(std::span<const T> send_data,
                                  std::span<T> recv_data, std::size_t block,
                                  int tag) {
  const int n = size();
  const auto my = static_cast<std::size_t>(rank());
  // Phase 1: local rotation — tmp block i is the block destined to rank+i.
  std::vector<T> tmp(block * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::size_t src = (my + static_cast<std::size_t>(i)) % static_cast<std::size_t>(n);
    std::copy(send_data.data() + block * src, send_data.data() + block * (src + 1),
              tmp.data() + block * static_cast<std::size_t>(i));
  }
  // Phase 2: for each bit, ship every block whose index has that bit set to
  // the rank 2^bit ahead; after all rounds tmp block i holds the block *from*
  // rank (rank - i).
  std::vector<T> pack(block * static_cast<std::size_t>((n + 1) / 2));
  std::vector<T> unpack(pack.size());
  for (int pow = 1; pow < n; pow <<= 1) {
    std::size_t cnt = 0;
    for (int i = 1; i < n; ++i) {
      if ((i & pow) == 0) continue;
      std::copy(tmp.data() + block * static_cast<std::size_t>(i),
                tmp.data() + block * static_cast<std::size_t>(i + 1),
                pack.data() + block * cnt);
      ++cnt;
    }
    const int dst = (rank() + pow) % n;
    const int src = (rank() - pow + n) % n;
    raw_sendrecv(std::span<const T>(pack.data(), block * cnt), dst,
                 std::span<T>(unpack.data(), block * cnt), src, tag);
    cnt = 0;
    for (int i = 1; i < n; ++i) {
      if ((i & pow) == 0) continue;
      std::copy(unpack.data() + block * cnt, unpack.data() + block * (cnt + 1),
                tmp.data() + block * static_cast<std::size_t>(i));
      ++cnt;
    }
  }
  // Phase 3: inverse rotation with reversal.
  for (int i = 0; i < n; ++i) {
    const std::size_t dst =
        (my + static_cast<std::size_t>(n - i)) % static_cast<std::size_t>(n);
    std::copy(tmp.data() + block * static_cast<std::size_t>(i),
              tmp.data() + block * static_cast<std::size_t>(i + 1),
              recv_data.data() + block * dst);
  }
}

// Spread: every transfer posted non-blocking at once; maximum overlap,
// maximum simultaneous buffer pressure. With n-1 receives in flight the
// receiver busy chain must not depend on wall-clock arrival order, so the
// receives are completed in virtual arrival order.
template <typename T>
void Communicator::alltoall_spread(std::span<const T> send_data,
                                   std::span<T> recv_data, std::size_t block,
                                   int tag) {
  const int n = size();
  std::vector<Request> recvs;
  std::vector<Request> sends;
  recvs.reserve(static_cast<std::size_t>(n - 1));
  sends.reserve(static_cast<std::size_t>(n - 1));
  for (int step = 1; step < n; ++step) {
    const int peer = (rank() + step) % n;
    recvs.push_back(raw_irecv(
        std::span<T>(recv_data.data() + block * static_cast<std::size_t>(peer), block),
        peer, tag));
  }
  for (int step = 1; step < n; ++step) {
    const int peer = (rank() + step) % n;
    sends.push_back(raw_isend(
        std::span<const T>(send_data.data() + block * static_cast<std::size_t>(peer),
                           block),
        peer, tag));
  }
  engine_->complete_in_arrival_order(recvs);
  engine_->wait_all(recvs);
  engine_->wait_all(sends);
}

}  // namespace cbmpi::mpi
