#include "netsim/sim.h"

#include <gtest/gtest.h>

namespace tenet::netsim {
namespace {

/// Records everything it receives.
class Recorder : public Node {
 public:
  using Node::Node;
  void handle_message(const Message& msg) override {
    received.push_back(msg);
    times.push_back(sim().now());
  }
  std::vector<Message> received;
  std::vector<double> times;
};

TEST(Sim, DeliversMessageWithPayload) {
  Simulator sim;
  Recorder a(sim, "a"), b(sim, "b");
  a.send(b.id(), 7, crypto::to_bytes("hello"));
  EXPECT_EQ(sim.run(), 1u);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].src, a.id());
  EXPECT_EQ(b.received[0].port, 7u);
  EXPECT_EQ(crypto::to_string(b.received[0].payload), "hello");
}

TEST(Sim, NodeIdsAreUniqueAndNamed) {
  Simulator sim;
  Recorder a(sim, "alpha"), b(sim, "beta");
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(sim.node_name(a.id()), "alpha");
  EXPECT_EQ(sim.node_name(999), "<unknown>");
}

TEST(Sim, FifoOrderOnEqualLatency) {
  Simulator sim;
  Recorder a(sim, "a"), b(sim, "b");
  for (int i = 0; i < 10; ++i) {
    a.send(b.id(), static_cast<uint32_t>(i), {});
  }
  sim.run();
  ASSERT_EQ(b.received.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(b.received[static_cast<size_t>(i)].port, static_cast<uint32_t>(i));
  }
}

TEST(Sim, LatencyOrdersDelivery) {
  Simulator sim;
  Recorder a(sim, "a"), b(sim, "b"), c(sim, "c");
  sim.set_latency(a.id(), b.id(), 0.5);
  sim.set_latency(a.id(), c.id(), 0.1);
  a.send(b.id(), 1, {});
  a.send(c.id(), 2, {});
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  ASSERT_EQ(c.times.size(), 1u);
  EXPECT_LT(c.times[0], b.times[0]);
  EXPECT_NEAR(b.times[0], 0.5, 1e-9);
}

TEST(Sim, SerializationDelayScalesWithSize) {
  Simulator sim;
  sim.set_bandwidth(1000);  // 1 KB/s so delay is visible
  Recorder a(sim, "a"), b(sim, "b");
  a.send(b.id(), 1, crypto::Bytes(500, 0));
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_NEAR(b.times[0], sim.latency(a.id(), b.id()) + 0.5, 1e-9);
}

TEST(Sim, CutLinkDropsAndHealRestores) {
  Simulator sim;
  Recorder a(sim, "a"), b(sim, "b");
  sim.fault_plan().set_link(a.id(), b.id(), LinkFaults{.loss = 1});
  a.send(b.id(), 1, {});
  b.send(a.id(), 1, {});  // a cut holds in both directions
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(sim.messages_dropped(), 2u);

  sim.fault_plan().set_link(a.id(), b.id(), {});
  a.send(b.id(), 1, {});
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(sim.messages_dropped(), 2u);
}

TEST(Sim, MessagesToDeadNodesAreDropped) {
  Simulator sim;
  Recorder a(sim, "a");
  NodeId ghost;
  {
    Recorder temp(sim, "temp");
    ghost = temp.id();
  }
  a.send(ghost, 1, {});
  EXPECT_NO_THROW(sim.run());
}

TEST(Sim, InvalidDestinationRejected) {
  Simulator sim;
  Recorder a(sim, "a");
  EXPECT_THROW(a.send(kInvalidNode, 1, {}), std::invalid_argument);
}

TEST(Sim, CascadedSendsInsideHandlersRun) {
  // A relays to B which relays to C — handlers re-enter the simulator.
  class Relay : public Node {
   public:
    Relay(Simulator& s, std::string n, NodeId* next) : Node(s, n), next_(next) {}
    void handle_message(const Message& m) override {
      hops = m.port;
      if (*next_ != kInvalidNode) {
        send(*next_, m.port + 1, crypto::Bytes(m.payload));
      }
    }
    NodeId* next_;
    uint32_t hops = 0;
  };
  Simulator sim;
  NodeId next_b = kInvalidNode, next_c = kInvalidNode;
  Relay a(sim, "a", &next_b), b(sim, "b", &next_c), c(sim, "c", &next_c);
  next_b = b.id();
  a.handle_message(Message{c.id(), a.id(), 1, crypto::to_bytes("x")});
  sim.run();
  EXPECT_EQ(b.hops, 2u);
}

TEST(Sim, RunCapThrowsOnLivelock) {
  class PingPong : public Node {
   public:
    PingPong(Simulator& s, std::string n) : Node(s, n) {}
    void handle_message(const Message& m) override {
      send(m.src, m.port, {});
    }
  };
  Simulator sim;
  PingPong a(sim, "a"), b(sim, "b");
  a.send(b.id(), 1, {});
  EXPECT_THROW(sim.run(/*max_events=*/100), std::runtime_error);
}

TEST(Sim, PerLinkFifoOrderDespiteSizes) {
  // A large message followed by a tiny one on the same link must arrive
  // in order (links are TCP-like byte streams).
  Simulator sim;
  sim.set_bandwidth(1000);  // slow: size matters
  Recorder a(sim, "a"), b(sim, "b");
  a.send(b.id(), 1, crypto::Bytes(900, 0));  // slow to serialize
  a.send(b.id(), 2, crypto::Bytes(1, 0));    // would overtake without FIFO
  sim.run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].port, 1u);
  EXPECT_EQ(b.received[1].port, 2u);
}

TEST(Sim, ClockAdvancesMonotonically) {
  Simulator sim;
  Recorder a(sim, "a"), b(sim, "b");
  EXPECT_EQ(sim.now(), 0.0);
  a.send(b.id(), 1, {});
  sim.run();
  const double t1 = sim.now();
  EXPECT_GT(t1, 0.0);
  b.send(a.id(), 1, {});
  sim.run();
  EXPECT_GT(sim.now(), t1);
}

}  // namespace
}  // namespace tenet::netsim
