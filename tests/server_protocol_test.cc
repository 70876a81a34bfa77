// Wire-protocol tests: FrameDecoder round trips and the malformed-input
// corpus (truncated frames, oversized length prefixes, unknown opcodes,
// zero-length payloads, frames split across reads). Every malformed input
// must end in a well-formed error frame or a clean close — never a crash
// or a hung connection. The live-server half of the corpus runs against a
// loopback daemon bound to an ephemeral port (port 0).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <string>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "server/service.h"
#include "server/wire.h"
#include "server/workbench.h"
#include "util/status.h"

namespace rdfparams::server {
namespace {

// ---------------------------------------------------------------------------
// Pure decoder units (no sockets).
// ---------------------------------------------------------------------------

TEST(FrameCodec, RoundTripsOneFrame) {
  std::string bytes = EncodeFrame(Opcode::kClassify, "query=4");
  ASSERT_EQ(bytes.size(), 4 + 1 + 7u);

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes).ok());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kClassify));
  EXPECT_EQ(frame->payload, "query=4");
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodec, RoundTripsZeroLengthPayload) {
  std::string bytes = EncodeFrame(Opcode::kPing, "");
  ASSERT_EQ(bytes.size(), 5u);  // length prefix + opcode, nothing else

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes).ok());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kPing));
  EXPECT_TRUE(frame->payload.empty());
}

TEST(FrameCodec, RoundTripsManyFramesInOneFeed) {
  std::string bytes;
  for (int i = 0; i < 100; ++i) {
    bytes += EncodeFrame(Opcode::kPing, "payload-" + std::to_string(i));
  }
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes).ok());
  for (int i = 0; i < 100; ++i) {
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->payload, "payload-" + std::to_string(i));
  }
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameCodec, ReassemblesFrameSplitAcrossFeeds) {
  std::string bytes = EncodeFrame(Opcode::kRun, "query=1\nn=10");
  FrameDecoder decoder;
  // Worst case: one byte per read.
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    ASSERT_TRUE(decoder.Feed(bytes.substr(i, 1)).ok());
    EXPECT_FALSE(decoder.Next().has_value()) << "complete after byte " << i;
  }
  ASSERT_TRUE(decoder.Feed(bytes.substr(bytes.size() - 1)).ok());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kRun));
  EXPECT_EQ(frame->payload, "query=1\nn=10");
}

TEST(FrameCodec, TruncatedFrameStaysIncompleteNotAnError) {
  std::string bytes = EncodeFrame(Opcode::kClassify, "query=4");
  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(bytes.substr(0, bytes.size() - 3)).ok());
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_EQ(decoder.buffered(), bytes.size() - 3);
}

TEST(FrameCodec, RejectsLengthZero) {
  FrameDecoder decoder;
  Status st = decoder.Feed(std::string(4, '\0'));  // length prefix 0
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  // Sticky: further feeds keep failing and no frames ever come out.
  EXPECT_FALSE(decoder.Feed(EncodeFrame(Opcode::kPing, "x")).ok());
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameCodec, RejectsOversizedLengthEagerly) {
  // 0xFFFFFFFF far exceeds kMaxFrameBytes; the decoder must fail on the
  // 4 prefix bytes alone instead of waiting for 4 GiB that never comes.
  FrameDecoder decoder;
  Status st = decoder.Feed(std::string(4, '\xFF'));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("exceeds"), std::string::npos) << st.ToString();
}

TEST(FrameCodec, RejectsOversizedLengthBehindValidFrames) {
  // A valid frame followed by a hostile prefix: the valid frame must
  // still be deliverable... no — Feed validates eagerly and poisons the
  // whole stream, because after a framing violation byte boundaries are
  // meaningless. Assert that contract explicitly.
  std::string bytes = EncodeFrame(Opcode::kPing, "ok");
  bytes += std::string(4, '\xFF');
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(bytes).ok());
  EXPECT_FALSE(decoder.Next().has_value());
}

TEST(FrameCodec, CompactsConsumedPrefixWithoutCorruption) {
  // Push enough consumed bytes through one decoder to trigger the
  // internal buffer compaction (pos_ > 4096) several times over.
  FrameDecoder decoder;
  std::string payload(512, 'x');
  for (int i = 0; i < 64; ++i) {
    payload[0] = static_cast<char>('a' + (i % 26));
    ASSERT_TRUE(decoder.Feed(EncodeFrame(Opcode::kPing, payload)).ok());
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->payload, payload);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(ErrorPayload, RoundTripsStatus) {
  Status original = Status::Unavailable("server at capacity: test");
  Status decoded = DecodeErrorPayload(EncodeErrorPayload(original));
  EXPECT_EQ(decoded.code(), original.code());
  EXPECT_EQ(decoded.message(), original.message());
}

TEST(ErrorPayload, EmptyPayloadDecodesAsParseError) {
  Status decoded = DecodeErrorPayload("");
  EXPECT_EQ(decoded.code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// Live-server malformed-input corpus.
// ---------------------------------------------------------------------------

class ServerProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorkbenchConfig config;
    config.products = 200;  // tiny: the corpus cares about framing, not data
    auto wb = BuildWorkbench(config);
    ASSERT_TRUE(wb.ok()) << wb.status().ToString();
    wb_ = new Workbench(std::move(wb).value());
    service_ = new Service(*wb_);

    ServerConfig server_config;
    server_config.port = 0;  // ephemeral; report via port()
    server_config.threads = 2;
    server_ = new Server(service_, server_config);
    Status st = server_->Start();
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_NE(server_->port(), 0) << "port 0 must resolve to a real port";
  }

  static void TearDownTestSuite() {
    server_->Stop();
    delete server_;
    delete service_;
    delete wb_;
    server_ = nullptr;
    service_ = nullptr;
    wb_ = nullptr;
  }

  static Client Connect() {
    Client client;
    Status st = client.Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(st.ok()) << st.ToString();
    return client;
  }

  static Workbench* wb_;
  static Service* service_;
  static Server* server_;
};

Workbench* ServerProtocolTest::wb_ = nullptr;
Service* ServerProtocolTest::service_ = nullptr;
Server* ServerProtocolTest::server_ = nullptr;

TEST_F(ServerProtocolTest, PingEchoesPayload) {
  auto response = CallOnce("127.0.0.1", server_->port(), Opcode::kPing,
                           "hello over the wire");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(*response, "hello over the wire");
}

/// TCP_NODELAY as getsockopt reads it back from `fd`.
bool NoDelayOn(int fd) {
  int on = 0;
  socklen_t len = sizeof(on);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len), 0);
  return on != 0;
}

TEST_F(ServerProtocolTest, BothEndsOfAConnectionSetTcpNoDelay) {
  Client client = Connect();
  // A served ping proves the daemon has accepted the connection.
  auto frame = client.Call(Opcode::kPing, "nodelay");
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_TRUE(NoDelayOn(client.fd())) << "client end (util::ConnectTcp)";

  // The daemon runs in this process, so its end of the connection is one
  // of our descriptors: the socket whose peer is the client's local
  // address.
  sockaddr_in local{};
  socklen_t len = sizeof(local);
  ASSERT_EQ(::getsockname(client.fd(), reinterpret_cast<sockaddr*>(&local),
                          &len),
            0);
  int daemon_fd = -1;
  for (int fd = 0; fd < 4096 && daemon_fd < 0; ++fd) {
    if (fd == client.fd()) continue;
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) !=
            0 ||
        peer.sin_family != AF_INET) {
      continue;
    }
    if (peer.sin_port == local.sin_port &&
        peer.sin_addr.s_addr == local.sin_addr.s_addr) {
      daemon_fd = fd;
    }
  }
  ASSERT_GE(daemon_fd, 0) << "the daemon's end of the connection not found";
  EXPECT_TRUE(NoDelayOn(daemon_fd)) << "daemon end (Server::AcceptLoop)";
}

TEST_F(ServerProtocolTest, ZeroLengthPayloadPingIsServed) {
  Client client = Connect();
  auto frame = client.Call(Opcode::kPing, "");
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kOk));
  EXPECT_TRUE(frame->payload.empty());
}

TEST_F(ServerProtocolTest, UnknownOpcodeGetsErrorFrameAndSessionSurvives) {
  Client client = Connect();
  ASSERT_TRUE(client.SendRaw(EncodeFrame(static_cast<Opcode>(99), "?")).ok());
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kError));
  Status carried = DecodeErrorPayload(frame->payload);
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(carried.message().find("unknown opcode 99"), std::string::npos)
      << carried.ToString();

  // The framing is still intact, so the connection must remain usable.
  auto ping = client.Call(Opcode::kPing, "still alive");
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping->payload, "still alive");
}

TEST_F(ServerProtocolTest, OversizedLengthPrefixGetsErrorFrameThenClose) {
  Client client = Connect();
  ASSERT_TRUE(client.SendRaw(std::string(4, '\xFF')).ok());
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(DecodeErrorPayload(frame->payload).code(),
            StatusCode::kParseError);
  // After a framing violation the server closes; the next read is EOF,
  // never a hang.
  EXPECT_FALSE(client.ReadFrame().ok());
}

TEST_F(ServerProtocolTest, ZeroLengthPrefixGetsErrorFrameThenClose) {
  Client client = Connect();
  ASSERT_TRUE(client.SendRaw(std::string(4, '\0')).ok());
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(DecodeErrorPayload(frame->payload).code(),
            StatusCode::kParseError);
  EXPECT_FALSE(client.ReadFrame().ok());
}

TEST_F(ServerProtocolTest, GarbageHttpBytesGetErrorFrameThenClose) {
  // "GET " decodes as a ~542 MB length prefix — over the frame cap, so a
  // stray HTTP client gets one error frame and a close, not 542 MB of
  // patience.
  Client client = Connect();
  ASSERT_TRUE(client.SendRaw("GET / HTTP/1.1\r\nHost: x\r\n\r\n").ok());
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(DecodeErrorPayload(frame->payload).code(),
            StatusCode::kParseError);
  EXPECT_FALSE(client.ReadFrame().ok());
}

TEST_F(ServerProtocolTest, TruncatedFrameThenHalfCloseEndsCleanly) {
  // A frame that never completes is not an error the server can even
  // diagnose (the bytes may still be coming); on client EOF it just
  // closes the session without a response.
  Client client = Connect();
  std::string bytes = EncodeFrame(Opcode::kClassify, "query=4");
  ASSERT_TRUE(client.SendRaw(bytes.substr(0, bytes.size() - 3)).ok());
  client.CloseWrite();
  auto frame = client.ReadFrame();
  EXPECT_FALSE(frame.ok());  // clean EOF, no response frame, no hang
}

TEST_F(ServerProtocolTest, FrameSplitAcrossManyWritesIsReassembled) {
  Client client = Connect();
  std::string bytes = EncodeFrame(Opcode::kPing, "split me across reads");
  for (size_t i = 0; i < bytes.size(); i += 3) {
    ASSERT_TRUE(client.SendRaw(bytes.substr(i, 3)).ok());
  }
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kOk));
  EXPECT_EQ(frame->payload, "split me across reads");
}

TEST_F(ServerProtocolTest, PipelinedFramesAnsweredStrictlyInOrder) {
  Client client = Connect();
  std::string burst;
  for (int i = 0; i < 10; ++i) {
    burst += EncodeFrame(Opcode::kPing, "seq-" + std::to_string(i));
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());
  for (int i = 0; i < 10; ++i) {
    auto frame = client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->payload, "seq-" + std::to_string(i));
  }
}

TEST_F(ServerProtocolTest, MalformedRequestPayloadKeepsSessionUsable) {
  Client client = Connect();
  // Well-framed but semantically broken requests: header line without
  // '=', unknown field, out-of-range value. Each must produce an error
  // frame and leave the connection usable.
  const char* bad_payloads[] = {"not-a-key-value-line",
                                "query=4\nbogus_field=1", "query=999"};
  for (const char* payload : bad_payloads) {
    auto frame = client.Call(Opcode::kClassify, payload);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->opcode, static_cast<uint8_t>(Opcode::kError))
        << payload;
  }
  auto ping = client.Call(Opcode::kPing, "ok");
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping->payload, "ok");
}

}  // namespace
}  // namespace rdfparams::server
