#include "mpi/matcher.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

#include "mpi/fiber.hpp"

namespace cbmpi::mpi {

namespace {
bool matches(const fabric::Envelope& env, int src_world, int tag, std::uint64_t comm_id) {
  if (env.comm_id != comm_id) return false;
  if (src_world != kAnySource && env.src != src_world) return false;
  if (tag != kAnyTag && env.tag != tag) return false;
  return true;
}

bool matches(const fabric::Envelope& env, const RequestState& request) {
  return matches(env, request.src_world, request.tag, request.comm_id);
}

/// Hands `env` to the owning rank. Called under the matcher lock; the
/// release store publishes the envelope to the owner's acquire load.
void bind(RequestState& request, fabric::Envelope env) {
  request.envelope = std::move(env);
  request.matched.store(true, std::memory_order_release);
}
}  // namespace

void Matcher::deliver(fabric::Envelope envelope) {
  {
    const std::scoped_lock lock(mutex_);
    const auto it = std::find_if(posted_.begin(), posted_.end(),
                                 [&](const Request& r) { return matches(envelope, *r); });
    if (it != posted_.end()) {
      bind(**it, std::move(envelope));
      posted_.erase(it);
    } else {
      unexpected_.push_back(std::move(envelope));
    }
    ++version_;
  }
  fiber::changed();
}

void Matcher::post(const Request& request) {
  const std::scoped_lock lock(mutex_);
  auto best = unexpected_.end();
  // Per-sender candidates are the *first* matching envelope from each sender
  // (delivery order == sender program order, so taking the first preserves
  // the non-overtaking rule). Among candidates, the earliest virtual
  // availability wins; ties break by source rank then sequence number.
  std::vector<int> seen_sources;
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!matches(*it, *request)) continue;
    if (request->src_world != kAnySource) {
      best = it;
      break;
    }
    if (std::find(seen_sources.begin(), seen_sources.end(), it->src) !=
        seen_sources.end())
      continue;
    seen_sources.push_back(it->src);
    if (best == unexpected_.end() ||
        std::tie(it->available_at, it->src, it->seq) <
            std::tie(best->available_at, best->src, best->seq)) {
      best = it;
    }
  }
  if (best == unexpected_.end()) {
    posted_.push_back(request);
    return;
  }
  bind(*request, std::move(*best));
  unexpected_.erase(best);
}

bool Matcher::cancel(const Request& request) {
  const std::scoped_lock lock(mutex_);
  const auto it = std::find(posted_.begin(), posted_.end(), request);
  if (it == posted_.end()) return false;
  posted_.erase(it);
  return true;
}

std::optional<Status> Matcher::peek(int src_world, int tag, std::uint64_t comm_id) const {
  const std::scoped_lock lock(mutex_);
  for (const auto& env : unexpected_) {
    if (matches(env, src_world, tag, comm_id))
      return Status{env.src, env.tag, env.size};
  }
  return std::nullopt;
}

std::uint64_t Matcher::version() const {
  const std::scoped_lock lock(mutex_);
  return version_;
}

void Matcher::poke() {
  {
    const std::scoped_lock lock(mutex_);
    ++version_;
  }
  fiber::changed();
}

std::size_t Matcher::pending() const {
  const std::scoped_lock lock(mutex_);
  return unexpected_.size();
}

}  // namespace cbmpi::mpi
