#include "sched/placer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cbmpi::sched {

const char* to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::Packed: return "packed";
    case PlacementPolicy::Spread: return "spread";
    case PlacementPolicy::Random: return "random";
    case PlacementPolicy::LocalityAware: return "locality";
    case PlacementPolicy::TopologyAware: return "topology";
  }
  return "?";
}

std::optional<PlacementPolicy> parse_policy(const std::string& name) {
  if (name == "packed") return PlacementPolicy::Packed;
  if (name == "spread") return PlacementPolicy::Spread;
  if (name == "random") return PlacementPolicy::Random;
  if (name == "locality" || name == "locality-aware")
    return PlacementPolicy::LocalityAware;
  if (name == "topology" || name == "topology-aware")
    return PlacementPolicy::TopologyAware;
  return std::nullopt;
}

mpi::TrafficMatrix effective_traffic(const JobSpec& job) {
  if (job.traffic) {
    CBMPI_REQUIRE(job.traffic->size() == static_cast<std::size_t>(job.ranks),
                  "job '", job.name, "' supplies a ", job.traffic->size(),
                  "-rank traffic matrix for ", job.ranks, " ranks");
    return *job.traffic;
  }
  return mpi::JobBodyRegistry::instance().traffic_hint(job.body, job.ranks,
                                                       job.params);
}

namespace {

std::size_t idx(int i) { return static_cast<std::size_t>(i); }

struct HostFree {
  topo::HostId host = 0;
  int free = 0;
};

/// Hosts with capacity, emptiest first (ties by id — deterministic).
std::vector<HostFree> hosts_by_free(const ClusterState& state) {
  std::vector<HostFree> hosts;
  for (int h = 0; h < state.num_hosts(); ++h)
    if (state.free_count(h) > 0) hosts.push_back({h, state.free_count(h)});
  std::stable_sort(hosts.begin(), hosts.end(),
                   [](const HostFree& a, const HostFree& b) { return a.free > b.free; });
  return hosts;
}

/// Folds a rank->host map into a Placement, claiming the lowest free cores
/// of each host in ascending-rank order.
Placement materialize(const std::vector<int>& rank_host, const ClusterState& state) {
  Placement placement;
  for (int h = 0; h < state.num_hosts(); ++h) {
    HostAssignment assignment;
    assignment.host = h;
    for (int r = 0; r < static_cast<int>(rank_host.size()); ++r)
      if (rank_host[idx(r)] == h) assignment.ranks.push_back(r);
    if (assignment.ranks.empty()) continue;
    const auto free = state.free_cores(h);
    CBMPI_REQUIRE(assignment.ranks.size() <= free.size(),
                  "placement oversubscribes host ", h);
    assignment.cores.assign(free.begin(),
                            free.begin() + static_cast<std::ptrdiff_t>(
                                               assignment.ranks.size()));
    placement.hosts.push_back(std::move(assignment));
  }
  return placement;
}

class PackedPlacer : public Placer {
 public:
  const char* name() const override { return "packed"; }
  std::optional<Placement> place(const JobSpec& job,
                                 const ClusterState& state) const override {
    if (state.total_free() < job.ranks) return std::nullopt;
    std::vector<int> rank_host(idx(job.ranks), -1);
    int next = 0;
    for (const auto& host : hosts_by_free(state)) {
      for (int c = 0; c < host.free && next < job.ranks; ++c)
        rank_host[idx(next++)] = host.host;
      if (next == job.ranks) break;
    }
    return materialize(rank_host, state);
  }
};

class SpreadPlacer : public Placer {
 public:
  const char* name() const override { return "spread"; }
  std::optional<Placement> place(const JobSpec& job,
                                 const ClusterState& state) const override {
    if (state.total_free() < job.ranks) return std::nullopt;
    std::vector<int> remaining(idx(state.num_hosts()), 0);
    for (int h = 0; h < state.num_hosts(); ++h)
      remaining[idx(h)] = state.free_count(h);
    std::vector<int> rank_host(idx(job.ranks), -1);
    for (int r = 0; r < job.ranks; ++r) {
      // Most-free host first levels load across the cluster.
      int best = -1;
      for (int h = 0; h < state.num_hosts(); ++h)
        if (remaining[idx(h)] > 0 &&
            (best < 0 || remaining[idx(h)] > remaining[idx(best)]))
          best = h;
      rank_host[idx(r)] = best;
      --remaining[idx(best)];
    }
    return materialize(rank_host, state);
  }
};

class RandomPlacer : public Placer {
 public:
  explicit RandomPlacer(std::uint64_t seed) : seed_(seed) {}
  const char* name() const override { return "random"; }
  std::optional<Placement> place(const JobSpec& job,
                                 const ClusterState& state) const override {
    if (state.total_free() < job.ranks) return std::nullopt;
    // Seeded per (scheduler seed, job id): probing the same job twice —
    // e.g. a backfill check then the real start — draws the same placement.
    Xoshiro256 rng(mix64(seed_ ^ mix64(static_cast<std::uint64_t>(job.id) +
                                       std::uint64_t{0x5bf03635})));
    std::vector<int> remaining(idx(state.num_hosts()), 0);
    for (int h = 0; h < state.num_hosts(); ++h)
      remaining[idx(h)] = state.free_count(h);
    std::vector<int> rank_host(idx(job.ranks), -1);
    for (int r = 0; r < job.ranks; ++r) {
      std::vector<int> candidates;
      for (int h = 0; h < state.num_hosts(); ++h)
        if (remaining[idx(h)] > 0) candidates.push_back(h);
      const int pick =
          candidates[static_cast<std::size_t>(rng.below(candidates.size()))];
      rank_host[idx(r)] = pick;
      --remaining[idx(pick)];
    }
    return materialize(rank_host, state);
  }

 private:
  std::uint64_t seed_;
};

/// Greedy graph growing over an ordered host list: seed each host's bin with
/// the hottest unplaced rank, then keep pulling in whichever unplaced rank
/// has the most traffic into the bin. Maximizes co-resident pair weight
/// without solving the (NP-hard) balanced partition exactly.
std::vector<int> grow_bins(const JobSpec& job, const mpi::TrafficMatrix& traffic,
                           const std::vector<HostFree>& hosts) {
  std::vector<int> rank_host(idx(job.ranks), -1);
  std::vector<bool> placed(idx(job.ranks), false);
  int unplaced = job.ranks;

  for (const auto& host : hosts) {
    if (unplaced == 0) break;
    const int capacity = std::min(host.free, unplaced);
    std::vector<int> bin;
    for (int slot = 0; slot < capacity; ++slot) {
      int best = -1;
      double best_weight = -1.0;
      for (int r = 0; r < job.ranks; ++r) {
        if (placed[idx(r)]) continue;
        double weight = 0.0;
        if (bin.empty()) {
          for (int peer = 0; peer < job.ranks; ++peer)
            if (!placed[idx(peer)] && peer != r)
              weight += traffic[idx(r)][idx(peer)];
        } else {
          for (const int member : bin) weight += traffic[idx(r)][idx(member)];
        }
        if (weight > best_weight) {
          best_weight = weight;
          best = r;
        }
      }
      bin.push_back(best);
      placed[idx(best)] = true;
      rank_host[idx(best)] = host.host;
      --unplaced;
    }
  }
  return rank_host;
}

class LocalityAwarePlacer : public Placer {
 public:
  const char* name() const override { return "locality"; }
  std::optional<Placement> place(const JobSpec& job,
                                 const ClusterState& state) const override {
    if (state.total_free() < job.ranks) return std::nullopt;
    const auto traffic = effective_traffic(job);
    // Emptiest host first: fewest bins for neighbour-structured traffic.
    return materialize(grow_bins(job, traffic, hosts_by_free(state)), state);
  }
};

class TopologyAwarePlacer : public Placer {
 public:
  explicit TopologyAwarePlacer(std::vector<std::vector<int>> host_hops)
      : hops_(std::move(host_hops)) {}
  const char* name() const override { return "topology"; }
  std::optional<Placement> place(const JobSpec& job,
                                 const ClusterState& state) const override {
    if (state.total_free() < job.ranks) return std::nullopt;
    const auto traffic = effective_traffic(job);
    // Same bin growing as LocalityAware, but the hosts are accreted in hop
    // proximity order instead of free-capacity order: the inter-host traffic
    // that does remain crosses as few switches as the fabric allows.
    return materialize(grow_bins(job, traffic, hosts_by_proximity(state)), state);
  }

 private:
  int hop(int a, int b) const {
    if (a == b) return 0;
    const auto au = idx(a), bu = idx(b);
    if (au >= hops_.size() || bu >= hops_[au].size()) return 0;
    return hops_[au][bu];
  }

  /// Accretes the visiting order: start from the emptiest host, then
  /// repeatedly admit the candidate with the smallest total hop distance to
  /// the hosts already chosen (ties: more free cores, then lower id). The
  /// whole pool is ordered, so a capacity shortfall never strands a rank.
  std::vector<HostFree> hosts_by_proximity(const ClusterState& state) const {
    std::vector<HostFree> pool = hosts_by_free(state);
    if (hops_.empty() || pool.size() <= 1) return pool;

    std::vector<HostFree> chosen;
    chosen.reserve(pool.size());
    chosen.push_back(pool.front());
    pool.erase(pool.begin());

    while (!pool.empty()) {
      std::size_t best = 0;
      long best_dist = -1;
      for (std::size_t c = 0; c < pool.size(); ++c) {
        long dist = 0;
        for (const auto& h : chosen) dist += hop(pool[c].host, h.host);
        if (best_dist < 0 || dist < best_dist ||
            (dist == best_dist && pool[c].free > pool[best].free) ||
            (dist == best_dist && pool[c].free == pool[best].free &&
             pool[c].host < pool[best].host))
          best_dist = dist, best = c;
      }
      chosen.push_back(pool[best]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
    }
    return chosen;
  }

  std::vector<std::vector<int>> hops_;
};

}  // namespace

std::unique_ptr<Placer> make_placer(PlacementPolicy policy, std::uint64_t seed,
                                    const std::vector<std::vector<int>>* host_hops) {
  switch (policy) {
    case PlacementPolicy::Packed: return std::make_unique<PackedPlacer>();
    case PlacementPolicy::Spread: return std::make_unique<SpreadPlacer>();
    case PlacementPolicy::Random: return std::make_unique<RandomPlacer>(seed);
    case PlacementPolicy::LocalityAware:
      return std::make_unique<LocalityAwarePlacer>();
    case PlacementPolicy::TopologyAware:
      return std::make_unique<TopologyAwarePlacer>(
          host_hops ? *host_hops : std::vector<std::vector<int>>{});
  }
  CBMPI_REQUIRE(false, "unknown placement policy");
  return nullptr;
}

PlacementStats placement_stats(const JobSpec& job, const Placement& placement,
                               const mpi::TrafficMatrix& traffic) {
  PlacementStats stats;
  stats.hosts_used = static_cast<int>(placement.hosts.size());

  std::vector<int> host_of(idx(job.ranks), -1);
  std::vector<int> container_of(idx(job.ranks), -1);
  int next_container = 0;
  for (const auto& assignment : placement.hosts) {
    const int rpc = job.ranks_per_container;
    for (std::size_t k = 0; k < assignment.ranks.size(); ++k) {
      const int rank = assignment.ranks[k];
      host_of[idx(rank)] = assignment.host;
      container_of[idx(rank)] =
          rpc > 0 ? next_container + static_cast<int>(k) / rpc : -1;
    }
    if (rpc > 0)
      next_container +=
          (static_cast<int>(assignment.ranks.size()) + rpc - 1) / rpc;
  }

  double local_weight = 0.0, total_weight = 0.0;
  for (int a = 0; a < job.ranks; ++a)
    for (int b = a + 1; b < job.ranks; ++b) {
      const bool same_host = host_of[idx(a)] == host_of[idx(b)];
      if (same_host) {
        ++stats.intra_host_pairs;
        if (container_of[idx(a)] >= 0 &&
            container_of[idx(a)] == container_of[idx(b)])
          ++stats.intra_container_pairs;
      } else {
        ++stats.inter_host_pairs;
      }
      const double weight = traffic[idx(a)][idx(b)];
      total_weight += weight;
      if (same_host) local_weight += weight;
    }
  stats.local_traffic_share =
      total_weight > 0.0 ? local_weight / total_weight : 1.0;
  return stats;
}

mpi::JobConfig make_job_config(const JobSpec& job, const Placement& placement,
                               const topo::HostShape& shape) {
  CBMPI_REQUIRE(!placement.hosts.empty(), "placement uses no hosts");
  const int rpc = job.ranks_per_container;
  CBMPI_REQUIRE(rpc >= 0, "ranks_per_container must be >= 0 (0 = native)");

  mpi::JobConfig config;
  auto& spec = config.deployment;
  spec.privileged = job.privileged;
  spec.share_host_ipc = job.share_host_ipc;
  spec.share_host_pid = job.share_host_pid;
  spec.num_hosts = static_cast<int>(placement.hosts.size());
  config.cluster_hosts = spec.num_hosts;
  config.policy = job.policy;
  config.faults = job.faults;

  container::JobPlacement jp;
  jp.slots.resize(idx(job.ranks));
  jp.host_cpusets.resize(placement.hosts.size());
  std::vector<bool> seen(idx(job.ranks), false);
  int max_ranks_on_host = 0, max_containers_on_host = 0;

  for (std::size_t dense = 0; dense < placement.hosts.size(); ++dense) {
    const auto& assignment = placement.hosts[dense];
    CBMPI_REQUIRE(assignment.ranks.size() == assignment.cores.size(),
                  "host assignment ranks/cores length mismatch");
    CBMPI_REQUIRE(!assignment.ranks.empty(), "empty host assignment");
    max_ranks_on_host =
        std::max(max_ranks_on_host, static_cast<int>(assignment.ranks.size()));
    for (std::size_t k = 0; k < assignment.ranks.size(); ++k) {
      const int rank = assignment.ranks[k];
      CBMPI_REQUIRE(rank >= 0 && rank < job.ranks && !seen[idx(rank)],
                    "rank ", rank, " missing or placed twice");
      seen[idx(rank)] = true;
      container::RankSlot slot;
      slot.host = static_cast<topo::HostId>(dense);
      slot.container_index = rpc > 0 ? static_cast<int>(k) / rpc : -1;
      slot.core_slot = rpc > 0 ? static_cast<int>(k) % rpc : static_cast<int>(k);
      const int flat = assignment.cores[k];
      slot.core = topo::CoreId{flat / shape.cores_per_socket,
                               flat % shape.cores_per_socket};
      jp.slots[idx(rank)] = slot;
    }
    if (rpc > 0) {
      auto& cpusets = jp.host_cpusets[dense];
      for (std::size_t begin = 0; begin < assignment.cores.size(); begin += idx(rpc))
        cpusets.emplace_back(
            assignment.cores.begin() + static_cast<std::ptrdiff_t>(begin),
            assignment.cores.begin() +
                static_cast<std::ptrdiff_t>(
                    std::min(begin + idx(rpc), assignment.cores.size())));
      max_containers_on_host =
          std::max(max_containers_on_host, static_cast<int>(cpusets.size()));
    }
  }
  for (int r = 0; r < job.ranks; ++r)
    CBMPI_REQUIRE(seen[idx(r)], "rank ", r, " not placed on any host");

  // Keep the homogeneous fields roughly meaningful for labels/validation.
  spec.containers_per_host = rpc > 0 ? max_containers_on_host : 0;
  spec.procs_per_host = max_ranks_on_host;
  jp.spec = spec;
  config.placement = std::move(jp);
  return config;
}

}  // namespace cbmpi::sched
