// Property-style point-to-point tests: payload integrity and ordering across
// the full (message size x channel x deployment) space, plus edge cases
// (zero-size messages, self-sends, many outstanding requests, posted-order
// matching, cancellation, determinism, trace protocol structure).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>

#include "mpi/fiber.hpp"
#include "mpi/runtime.hpp"

namespace cbmpi {
namespace {

using container::DeploymentSpec;
using fabric::ChannelKind;
using fabric::LocalityPolicy;
using mpi::JobConfig;

struct SweepCase {
  Bytes size;
  int containers;  // 0 = native, -1 = two hosts
  LocalityPolicy policy;
};

std::string sweep_name(const testing::TestParamInfo<SweepCase>& info) {
  const auto& c = info.param;
  std::string name = format_size(c.size);
  if (c.containers == -1) {
    name += "_2hosts";
  } else if (c.containers == 0) {
    name += "_native";
  } else {
    name += "_";
    name += std::to_string(c.containers);
    name += "cont";
  }
  name += c.policy == LocalityPolicy::ContainerAware ? "_aware" : "_default";
  return name;
}

class Pt2PtSweep : public testing::TestWithParam<SweepCase> {
 protected:
  JobConfig config() const {
    const auto& c = GetParam();
    JobConfig cfg;
    if (c.containers == -1)
      cfg.deployment = DeploymentSpec::containers(2, 1, 1);
    else if (c.containers == 0)
      cfg.deployment = DeploymentSpec::native_hosts(1, 2);
    else
      cfg.deployment = DeploymentSpec::containers(1, c.containers, 2);
    cfg.policy = c.policy;
    return cfg;
  }
};

TEST_P(Pt2PtSweep, PayloadSurvivesByteExact) {
  const Bytes size = GetParam().size;
  mpi::run_job(config(), [size](mpi::Process& p) {
    std::vector<std::uint8_t> buf(std::max<Bytes>(size, 1));
    if (p.rank() == 0) {
      for (Bytes i = 0; i < size; ++i)
        buf[i] = static_cast<std::uint8_t>((i * 131 + 17) & 0xFF);
      p.world().send(std::span<const std::uint8_t>(buf.data(), size), 1, 7);
    } else {
      const auto status =
          p.world().recv(std::span<std::uint8_t>(buf.data(), size), 0, 7);
      ASSERT_EQ(status.bytes, size);
      for (Bytes i = 0; i < size; ++i)
        ASSERT_EQ(buf[i], static_cast<std::uint8_t>((i * 131 + 17) & 0xFF))
            << "corrupt byte at " << i;
    }
  });
}

TEST_P(Pt2PtSweep, NonOvertakingPerSenderOrder) {
  const Bytes size = GetParam().size;
  mpi::run_job(config(), [size](mpi::Process& p) {
    constexpr int kMessages = 8;
    if (p.rank() == 0) {
      std::vector<std::vector<std::uint32_t>> bufs;
      std::vector<mpi::Request> reqs;
      for (int m = 0; m < kMessages; ++m) {
        bufs.emplace_back(std::max<Bytes>(size / 4, 1),
                          static_cast<std::uint32_t>(m));
        reqs.push_back(p.world().isend(std::span<const std::uint32_t>(bufs.back()),
                                       1, 4));
      }
      p.world().wait_all(reqs);
    } else {
      std::vector<std::uint32_t> buf(std::max<Bytes>(size / 4, 1));
      for (int m = 0; m < kMessages; ++m) {
        p.world().recv(std::span<std::uint32_t>(buf), 0, 4);
        ASSERT_EQ(buf[0], static_cast<std::uint32_t>(m))
            << "same-tag messages must arrive in send order";
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, Pt2PtSweep,
    testing::Values(
        // eager SHM
        SweepCase{0, 2, LocalityPolicy::ContainerAware},
        SweepCase{1, 2, LocalityPolicy::ContainerAware},
        SweepCase{1_KiB, 2, LocalityPolicy::ContainerAware},
        // CMA rendezvous boundary
        SweepCase{8_KiB - 1, 2, LocalityPolicy::ContainerAware},
        SweepCase{8_KiB, 2, LocalityPolicy::ContainerAware},
        SweepCase{1_MiB, 2, LocalityPolicy::ContainerAware},
        // HCA loopback eager + rendezvous (default policy across containers)
        SweepCase{1_KiB, 2, LocalityPolicy::HostnameBased},
        SweepCase{17_KiB - 1, 2, LocalityPolicy::HostnameBased},
        SweepCase{17_KiB, 2, LocalityPolicy::HostnameBased},
        SweepCase{512_KiB, 2, LocalityPolicy::HostnameBased},
        // inter-host HCA
        SweepCase{1_KiB, -1, LocalityPolicy::ContainerAware},
        SweepCase{256_KiB, -1, LocalityPolicy::ContainerAware},
        // native SHM/CMA
        SweepCase{64, 0, LocalityPolicy::HostnameBased},
        SweepCase{64_KiB, 0, LocalityPolicy::HostnameBased}),
    sweep_name);

TEST(Pt2PtEdge, ZeroByteMessageCarriesTagAndSource) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 2);
  mpi::run_job(cfg, [](mpi::Process& p) {
    if (p.rank() == 0) {
      p.world().send(std::span<const int>{}, 1, 9);
    } else {
      const auto status = p.world().recv(std::span<int>{}, mpi::kAnySource, 9);
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(status.tag, 9);
      EXPECT_EQ(status.bytes, 0u);
    }
  });
}

TEST(Pt2PtEdge, SelfSendViaNonBlocking) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 1);
  mpi::run_job(cfg, [](mpi::Process& p) {
    std::vector<int> out(100, 7), in(100, 0);
    auto send_req = p.world().isend(std::span<const int>(out), 0, 3);
    auto recv_req = p.world().irecv(std::span<int>(in), 0, 3);
    p.world().wait(recv_req);
    p.world().wait(send_req);
    EXPECT_EQ(in[50], 7);
  });
}

TEST(Pt2PtEdge, SelfSendLargeRendezvous) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 1);
  mpi::run_job(cfg, [](mpi::Process& p) {
    std::vector<std::uint8_t> out(64_KiB, 0xAB), in(64_KiB, 0);
    auto send_req = p.world().isend(std::span<const std::uint8_t>(out), 0, 3);
    auto recv_req = p.world().irecv(std::span<std::uint8_t>(in), 0, 3);
    p.world().wait(recv_req);
    p.world().wait(send_req);
    EXPECT_EQ(in[12345], 0xAB);
  });
}

TEST(Pt2PtEdge, TagsSeparateStreams) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 2);
  mpi::run_job(cfg, [](mpi::Process& p) {
    if (p.rank() == 0) {
      p.world().send_value<int>(111, 1, 10);
      p.world().send_value<int>(222, 1, 20);
    } else {
      // Receive the *second* tag first.
      EXPECT_EQ(p.world().recv_value<int>(0, 20), 222);
      EXPECT_EQ(p.world().recv_value<int>(0, 10), 111);
    }
  });
}

TEST(Pt2PtEdge, IprobeSeesPendingWithoutConsuming) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 2);
  mpi::run_job(cfg, [](mpi::Process& p) {
    if (p.rank() == 0) {
      p.world().send_value<double>(1.5, 1, 6);
      p.world().barrier();
    } else {
      p.world().barrier();  // message certainly delivered
      const auto peek1 = p.world().iprobe(0, 6);
      ASSERT_TRUE(peek1.has_value());
      EXPECT_EQ(peek1->source, 0);
      EXPECT_EQ(peek1->bytes, sizeof(double));
      const auto peek2 = p.world().iprobe(0, 6);
      ASSERT_TRUE(peek2.has_value()) << "iprobe must not consume";
      EXPECT_DOUBLE_EQ(p.world().recv_value<double>(0, 6), 1.5);
      EXPECT_FALSE(p.world().iprobe(0, 6).has_value());
    }
  });
}

TEST(Pt2PtEdge, ManyOutstandingRequestsDrainCorrectly) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::containers(1, 2, 2);
  cfg.policy = LocalityPolicy::ContainerAware;
  mpi::run_job(cfg, [](mpi::Process& p) {
    constexpr int kCount = 200;
    if (p.rank() == 0) {
      std::vector<std::vector<int>> bufs;
      std::vector<mpi::Request> reqs;
      for (int m = 0; m < kCount; ++m) {
        bufs.emplace_back(16, m);
        reqs.push_back(p.world().isend(std::span<const int>(bufs.back()), 1, 2));
      }
      p.world().wait_all(reqs);
    } else {
      std::vector<std::vector<int>> bufs(kCount, std::vector<int>(16));
      std::vector<mpi::Request> reqs;
      for (int m = 0; m < kCount; ++m)
        reqs.push_back(
            p.world().irecv(std::span<int>(bufs[static_cast<std::size_t>(m)]), 0, 2));
      p.world().wait_all(reqs);
      for (int m = 0; m < kCount; ++m)
        ASSERT_EQ(bufs[static_cast<std::size_t>(m)][3], m);
    }
  });
}

// Steps two ranks through a fixed interleaving: each rank moves the shared
// stage forward and yields its fiber until the peer's next step.
void await_stage(const std::atomic<int>& stage, int value) {
  while (stage.load() != value) mpi::fiber::yield();
}

TEST(Pt2PtOrder, OlderPostedReceiveMatchesFirst) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 2);
  std::atomic<int> stage{0};
  mpi::run_job(cfg, [&stage](mpi::Process& p) {
    if (p.rank() == 0) {
      const int m0 = 0, m1 = 1;
      await_stage(stage, 1);
      auto s0 = p.world().isend(std::span<const int>(&m0, 1), 1, 2);
      stage = 2;
      await_stage(stage, 3);
      auto s1 = p.world().isend(std::span<const int>(&m1, 1), 1, 2);
      p.world().wait(s0);
      p.world().wait(s1);
    } else {
      int a = -1, b = -1;
      auto ra = p.world().irecv(std::span<int>(&a, 1), 0, 2);
      stage = 1;
      await_stage(stage, 2);  // m0 has been delivered while only A is posted
      auto rb = p.world().irecv(std::span<int>(&b, 1), 0, 2);
      stage = 3;
      p.world().wait(ra);
      p.world().wait(rb);
      EXPECT_EQ(a, 0) << "the older posted receive must take the first message";
      EXPECT_EQ(b, 1);
    }
  });
}

TEST(Pt2PtOrder, CancelledReceiveLeavesMessageForLaterReceive) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 2);
  std::atomic<int> stage{0};
  mpi::run_job(cfg, [&stage](mpi::Process& p) {
    if (p.rank() == 0) {
      await_stage(stage, 1);
      p.world().send_value<int>(42, 1, 4);
      stage = 2;
    } else {
      int a = -1, b = -1;
      auto ra = p.world().irecv(std::span<int>(&a, 1), 0, 4);
      p.world().cancel(ra);
      stage = 1;
      await_stage(stage, 2);
      p.world().recv(std::span<int>(&b, 1), 0, 4);
      EXPECT_EQ(b, 42);
      EXPECT_FALSE(p.world().test(ra)) << "a cancelled receive never completes";
      EXPECT_EQ(a, -1);
    }
  });
}

TEST(Pt2PtOrder, CancelAfterMatchCompletesNormally) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 2);
  std::atomic<int> stage{0};
  mpi::run_job(cfg, [&stage](mpi::Process& p) {
    if (p.rank() == 0) {
      await_stage(stage, 1);
      p.world().send_value<int>(7, 1, 4);
      stage = 2;
    } else {
      int a = -1;
      auto ra = p.world().irecv(std::span<int>(&a, 1), 0, 4);
      stage = 1;
      await_stage(stage, 2);  // the message is already bound to A
      p.world().cancel(ra);
      p.world().wait(ra);
      EXPECT_EQ(a, 7);
    }
  });
}

TEST(Determinism, VirtualTimeReproducible) {
  auto run_once = [] {
    JobConfig cfg;
    cfg.deployment = DeploymentSpec::containers(1, 2, 4);
    cfg.policy = LocalityPolicy::ContainerAware;
    return mpi::run_job(cfg, [](mpi::Process& p) {
      // Deterministic traffic: fixed-source receives only.
      std::vector<std::uint8_t> buf(4_KiB);
      for (int round = 0; round < 20; ++round) {
        const int peer = p.rank() ^ 1;
        if (p.rank() < peer) {
          p.world().send(std::span<const std::uint8_t>(buf), peer);
          p.world().recv(std::span<std::uint8_t>(buf), peer);
        } else {
          p.world().recv(std::span<std::uint8_t>(buf), peer);
          p.world().send(std::span<const std::uint8_t>(buf), peer);
        }
        p.world().barrier();
      }
    });
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.rank_times.size(), b.rank_times.size());
  for (std::size_t r = 0; r < a.rank_times.size(); ++r)
    EXPECT_DOUBLE_EQ(a.rank_times[r], b.rank_times[r]) << "rank " << r;
}

// Protocol events are read off the Proto spans: a rendezvous span opens when
// the RTS becomes visible at the receiver (avail_at) and its body is the
// CTS/data exchange; an eager span runs from arrival to receive completion.
std::vector<obs::Span> proto_spans(const mpi::JobResult& result,
                                   const std::string& name) {
  std::vector<obs::Span> out;
  for (const auto& span : result.spans)
    if (span.cat == obs::SpanCat::Proto && span.name == name) out.push_back(span);
  return out;
}

TEST(Trace, RendezvousEmitsProtocolEvents) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 2);
  cfg.observe = true;
  const auto result = mpi::run_job(cfg, [](mpi::Process& p) {
    std::vector<std::uint8_t> buf(64_KiB);
    if (p.rank() == 0)
      p.world().send(std::span<const std::uint8_t>(buf), 1);
    else
      p.world().recv(std::span<std::uint8_t>(buf), 0);
  });
  const auto rndv = proto_spans(result, "rndv");
  ASSERT_EQ(rndv.size(), 1u);
  EXPECT_LE(rndv[0].avail_at, rndv[0].begin);
  EXPECT_LT(rndv[0].begin, rndv[0].end);
  EXPECT_GE(rndv[0].posted_at, 0.0);
}

TEST(Trace, EagerEmitsSendAndComplete) {
  JobConfig cfg;
  cfg.deployment = DeploymentSpec::native_hosts(1, 2);
  cfg.observe = true;
  const auto result = mpi::run_job(cfg, [](mpi::Process& p) {
    if (p.rank() == 0)
      p.world().send_value<int>(5, 1);
    else
      p.world().recv_value<int>(0);
  });
  const auto eager = proto_spans(result, "eager");
  ASSERT_EQ(eager.size(), 1u);
  EXPECT_GE(eager[0].sent_at, 0.0);
  EXPECT_LE(eager[0].sent_at, eager[0].avail_at);
  EXPECT_LE(eager[0].avail_at, eager[0].end);
}

}  // namespace
}  // namespace cbmpi
