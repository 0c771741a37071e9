// The TCP transport's contract: it is byte-indistinguishable from the
// loopback reference — the same session script produces byte-identical
// framed responses over both — and its listener/teardown semantics match
// the unix-domain path (close() unblocks accept, abort() evicts sessions).
// Plus the SessionServer serving loop all process roles share.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "flaky.h"
#include "service/net/server.h"
#include "service/net/tcp.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "service/transport.h"
#include "topo/generators.h"
#include "util/error.h"

namespace dna::service {
namespace {

// ---------------------------------------------------------------------------
// Endpoint parsing
// ---------------------------------------------------------------------------

TEST(HostPort, ParsesTheThreeForms) {
  EXPECT_EQ(parse_hostport("10.1.2.3:4711").host, "10.1.2.3");
  EXPECT_EQ(parse_hostport("10.1.2.3:4711").port, 4711);
  EXPECT_EQ(parse_hostport(":4711").host, "127.0.0.1");
  EXPECT_EQ(parse_hostport(":4711").port, 4711);
  EXPECT_EQ(parse_hostport("4711").host, "127.0.0.1");
  EXPECT_EQ(parse_hostport("4711").port, 4711);
}

TEST(HostPort, RejectsGarbage) {
  EXPECT_THROW(parse_hostport("host:notaport"), Error);
  EXPECT_THROW(parse_hostport("host:70000"), Error);
  EXPECT_THROW(parse_hostport(""), Error);
}

// ---------------------------------------------------------------------------
// Raw TCP transport semantics
// ---------------------------------------------------------------------------

TEST(TcpTransport, EphemeralPortRoundTrip) {
  TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::thread server([&listener] {
    auto transport = listener.accept();
    ASSERT_NE(transport, nullptr);
    char buffer[64];
    std::string got;
    for (;;) {
      const size_t n = transport->recv(buffer, sizeof(buffer));
      if (n == 0) break;
      got.append(buffer, n);
    }
    transport->send("echo:" + got);
    transport->close_send();
  });

  auto client = connect_tcp("127.0.0.1", listener.port());
  client->send("hello over tcp");
  client->close_send();
  std::string answer;
  char buffer[64];
  for (;;) {
    const size_t n = client->recv(buffer, sizeof(buffer));
    if (n == 0) break;
    answer.append(buffer, n);
  }
  EXPECT_EQ(answer, "echo:hello over tcp");
  server.join();
}

TEST(TcpTransport, CloseUnblocksAccept) {
  TcpListener listener(0);
  std::thread acceptor([&listener] {
    EXPECT_EQ(listener.accept(), nullptr);  // woken by close, no client
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.close();
  acceptor.join();
}

TEST(TcpTransport, ConnectToClosedPortThrows) {
  uint16_t dead_port;
  {
    TcpListener listener(0);  // reserve a port, then free it
    dead_port = listener.port();
  }
  EXPECT_THROW(connect_tcp("127.0.0.1", dead_port), Error);
}

TEST(TcpTransport, AbortUnblocksAPeerMidRecv) {
  TcpListener listener(0);
  std::unique_ptr<Transport> server_side;
  std::thread acceptor([&] { server_side = listener.accept(); });
  auto client = connect_tcp("127.0.0.1", listener.port());
  acceptor.join();
  ASSERT_NE(server_side, nullptr);

  std::atomic<bool> unblocked{false};
  std::thread reader([&] {
    char buffer[16];
    // recv reports end-of-stream (or an error) once the peer aborts; either
    // way the thread must come back.
    try {
      while (server_side->recv(buffer, sizeof(buffer)) != 0) {
      }
    } catch (const Error&) {
    }
    unblocked.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client->abort();
  reader.join();
  EXPECT_TRUE(unblocked.load());
}

// ---------------------------------------------------------------------------
// Protocol equivalence: the same session script over TCP and loopback
// ---------------------------------------------------------------------------

/// Runs `script` against `service` over `transport` (client side), with a
/// ServerSession pumping `server_side`, and returns the raw response
/// payloads in order.
std::vector<std::string> run_script(DnaService& service,
                                    Transport& client_side,
                                    Transport& server_side,
                                    const std::vector<std::string>& script) {
  ServerSession session(service, server_side);
  std::thread server([&session] { session.run(); });
  std::vector<std::string> payloads;
  {
    FrameDecoder decoder;
    char buffer[4096];
    for (const std::string& line : script) {
      client_side.send(encode_frame(line));
      for (;;) {
        if (auto payload = decoder.next()) {
          payloads.push_back(*payload);
          break;
        }
        const size_t n = client_side.recv(buffer, sizeof(buffer));
        if (n == 0) throw Error("connection closed before response");
        decoder.feed(std::string_view(buffer, n));
      }
    }
  }
  client_side.close_send();
  server.join();
  return payloads;
}

TEST(TcpTransport, ByteIdenticalToLoopbackForTheSameScript) {
  // One script, two models (so version histories diverge between runs of
  // the same service — each transport gets a fresh service), reader and
  // writer requests mixed, including an error response.
  const std::vector<std::string> script = {
      "version",
      "reach r0 172.31.1.1",
      "check loopfree",
      "commit fail_link 1",
      "reach r0 172.31.1.1",
      "paths r0 172.31.3.1",
      "whatif fail_link 2",
      "not a query at all",
      "hash",
  };
  auto invariants = std::vector<core::Invariant>{
      {core::Invariant::Kind::kLoopFree, "", "", "", Ipv4Prefix()}};

  std::vector<std::string> over_loopback;
  {
    DnaService service(topo::make_ring(6), invariants, {.num_threads = 2});
    LoopbackChannel channel;
    over_loopback =
        run_script(service, channel.client(), channel.server(), script);
  }

  std::vector<std::string> over_tcp;
  {
    DnaService service(topo::make_ring(6), invariants, {.num_threads = 2});
    TcpListener listener(0);
    std::unique_ptr<Transport> server_side;
    std::thread acceptor([&] { server_side = listener.accept(); });
    auto client_side = connect_tcp("127.0.0.1", listener.port());
    acceptor.join();
    ASSERT_NE(server_side, nullptr);
    over_tcp = run_script(service, *client_side, *server_side, script);
  }

  ASSERT_EQ(over_loopback.size(), script.size());
  EXPECT_EQ(over_loopback, over_tcp)
      << "the wire format must be transport-independent";
}

// ---------------------------------------------------------------------------
// SessionServer
// ---------------------------------------------------------------------------

TEST(SessionServer, ServesManyClientsAndStopsOnShutdownRequest) {
  DnaService service(topo::make_ring(6), {}, {.num_threads = 2});
  TcpListener listener(0);
  SessionServer server(listener, [&service](Transport& transport) {
    ServerSession session(service, transport);
    session.run();
    return session.shutdown_requested();
  });
  server.start();

  constexpr int kClients = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&listener, &failures] {
      auto transport = connect_tcp("127.0.0.1", listener.port());
      ServiceClient client(*transport);
      for (int i = 0; i < 5; ++i) {
        const QueryResult result = client.request("reach r0 172.31.1.1");
        if (!result.ok || result.body != "reachable true owner r3") {
          failures.fetch_add(1);
        }
      }
      client.close();
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // A client-requested shutdown stops the accept loop and the server.
  {
    auto transport = connect_tcp("127.0.0.1", listener.port());
    ServiceClient client(*transport);
    EXPECT_EQ(client.request("shutdown").body, "shutting down");
  }
  server.join();
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(SessionServer, StopEvictsAnIdleClient) {
  DnaService service(topo::make_line(3), {}, {.num_threads = 1});
  TcpListener listener(0);
  SessionServer server(listener, [&service](Transport& transport) {
    ServerSession session(service, transport);
    session.run();
    return session.shutdown_requested();
  });
  server.start();

  // Connect and go silent: the session blocks in recv.
  auto idle = connect_tcp("127.0.0.1", listener.port());
  ServiceClient client(*idle);
  EXPECT_TRUE(client.request("version").ok);

  server.stop();  // must not hang on the idle session
  EXPECT_FALSE(server.shutdown_requested());
}

// ---------------------------------------------------------------------------
// FlakyTransport: seeded fault injection over a real TCP link
// ---------------------------------------------------------------------------

TEST(FlakyTransport, FailAfterBytesTearsTheLinkMidStream) {
  TcpListener listener(0);
  std::string received;
  std::thread server([&listener, &received] {
    auto transport = listener.accept();
    ASSERT_NE(transport, nullptr);
    char buffer[64];
    try {
      for (;;) {
        const size_t n = transport->recv(buffer, sizeof(buffer));
        if (n == 0) break;
        received.append(buffer, n);
      }
    } catch (const Error&) {
      // A reset instead of a clean FIN is acceptable; the byte count below
      // is the real assertion.
    }
  });

  auto flaky = make_flaky(connect_tcp("127.0.0.1", listener.port()),
                          {.fail_after_bytes = 10});
  auto* probe = static_cast<FlakyTransport*>(flaky.get());
  flaky->send("abcdef");  // 6 bytes, under the threshold
  EXPECT_FALSE(probe->fault_fired());
  // The 7th..14th bytes cross the threshold: exactly 4 more are delivered,
  // then the link dies mid-write.
  EXPECT_THROW(flaky->send("ghijklmn"), Error);
  EXPECT_TRUE(probe->fault_fired());
  EXPECT_EQ(probe->bytes_sent(), 10u);

  server.join();
  EXPECT_EQ(received, "abcdefghij") << "the peer must see exactly the prefix";

  // The link stays dead: sends throw, recv reads as end-of-stream.
  EXPECT_THROW(flaky->send("x"), Error);
  char buffer[8];
  EXPECT_EQ(flaky->recv(buffer, sizeof(buffer)), 0u);
}

TEST(FlakyTransport, SeededScheduleIsReplayable) {
  // Two flaky links with the same seed die on exactly the same send index
  // — whatever failure a test run finds, the seed reproduces it.
  const auto sends_until_death = [](uint64_t seed) {
    TcpListener listener(0);
    std::thread server([&listener] {
      auto transport = listener.accept();
      char buffer[64];
      try {
        while (transport->recv(buffer, sizeof(buffer)) != 0) {
        }
      } catch (const Error&) {
      }
    });
    auto flaky = make_flaky(connect_tcp("127.0.0.1", listener.port()),
                            {.seed = seed, .send_drop_chance = 0.2});
    size_t sends = 0;
    try {
      for (; sends < 1000; ++sends) flaky->send("x");
    } catch (const Error&) {
    }
    server.join();
    return sends;
  };
  const size_t first = sends_until_death(42);
  EXPECT_LT(first, 1000u) << "a 20% drop chance must fire within 1000 sends";
  EXPECT_EQ(first, sends_until_death(42));
  EXPECT_NE(first, sends_until_death(43)) << "different seed, different run";
}

}  // namespace
}  // namespace dna::service
