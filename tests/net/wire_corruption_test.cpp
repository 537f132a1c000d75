// Corruption / fuzz suite for the SAADNET1 wire layer, at two levels:
//
//  * FrameDecoder in isolation: bit-flips, truncations at every byte
//    boundary, oversized length prefixes, and garbage payloads must decode
//    to a clean latched error — never crash, never OOM, never fabricate
//    frames that were not sent.
//  * decode_batch into the flat SynopsisBatch serve runs: a payload that
//    fails (lying record count, truncated last record, trailing bytes,
//    garbage) leaves the batch exactly as it was, with no orphaned points
//    for the next record to count, and agrees with the value form.
//  * A live SynopsisServer fed raw socket bytes: every damage class drops
//    exactly the abused connection and bumps exactly the matching reject
//    counter, and the server keeps serving well-formed sessions afterwards.
//
// Runs under the asan/ubsan presets in CI (ctest -L corruption).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/channel.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace saad::net {
namespace {

using core::Synopsis;

Synopsis sample_synopsis(Rng& rng) {
  Synopsis s;
  s.stage = static_cast<core::StageId>(rng.next_below(8));
  s.host = static_cast<core::HostId>(rng.next_below(4));
  s.start = static_cast<UsTime>(rng.next_below(1 << 20));
  s.duration = 500 + static_cast<UsTime>(rng.next_below(5000));
  const auto points = 1 + rng.next_below(4);
  for (std::uint64_t p = 0; p < points; ++p)
    s.log_points.push_back({static_cast<core::LogPointId>(rng.next_below(60)),
                            static_cast<std::uint32_t>(1 + rng.next_below(3))});
  return s;
}

/// One well-formed session: magic, hello, a batch, a heartbeat, a goodbye.
std::vector<std::uint8_t> good_stream(std::size_t batch_synopses = 5) {
  Rng rng(7);
  std::vector<Synopsis> batch;
  for (std::size_t i = 0; i < batch_synopses; ++i)
    batch.push_back(sample_synopsis(rng));

  std::vector<std::uint8_t> bytes(std::begin(kStreamMagic),
                                  std::end(kStreamMagic));
  std::vector<std::uint8_t> payload;
  encode_hello(Hello{}, payload);
  encode_frame(FrameType::kHello, payload, bytes);
  payload.clear();
  encode_batch(batch, payload);
  encode_frame(FrameType::kBatch, payload, bytes);
  encode_frame(FrameType::kHeartbeat, {}, bytes);
  payload.clear();
  encode_goodbye(batch_synopses, payload);
  encode_frame(FrameType::kGoodbye, payload, bytes);
  return bytes;
}

std::size_t count_frames(FrameDecoder& decoder) {
  std::size_t n = 0;
  Frame frame;
  while (decoder.next(frame)) ++n;
  return n;
}

// ---- decoder level ---------------------------------------------------------

TEST(WireDecoder, ByteAtATimeFeedRecoversEveryFrame) {
  const auto bytes = good_stream();
  FrameDecoder decoder(/*expect_magic=*/true);
  for (const auto b : bytes) {
    ASSERT_TRUE(decoder.feed({&b, 1}));
  }
  EXPECT_EQ(count_frames(decoder), 4u);
  EXPECT_FALSE(decoder.failed());
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(WireDecoder, EveryBitFlipIsCleanlyRejectedOrHarmless) {
  const auto pristine = good_stream();
  FrameDecoder baseline(true);
  ASSERT_TRUE(baseline.feed(pristine));
  const std::size_t expected = count_frames(baseline);

  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = pristine;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      FrameDecoder decoder(true);
      decoder.feed(mutated);
      std::size_t decoded = 0;
      Frame frame;
      while (decoder.next(frame)) {
        ++decoded;
        // Whatever survived framing must also parse without crashing.
        if (frame.type == FrameType::kBatch) {
          std::vector<Synopsis> out;
          const bool ok = decode_batch(frame.payload, out);
          core::SynopsisBatch flat;
          EXPECT_EQ(decode_batch(frame.payload, flat), ok);
          EXPECT_EQ(flat.size(), out.size());
        } else if (frame.type == FrameType::kHello) {
          Hello hello;
          decode_hello(frame.payload, hello);
        } else if (frame.type == FrameType::kGoodbye) {
          std::uint64_t total = 0;
          decode_goodbye(frame.payload, total);
        }
      }
      // A single flipped bit can damage at most the frame it lives in:
      // never more frames than were sent, and a latched error thereafter.
      EXPECT_LE(decoded, expected) << "byte " << byte << " bit " << bit;
      if (decoded < expected) {
        EXPECT_TRUE(decoder.failed() || decoder.mid_frame())
            << "byte " << byte << " bit " << bit
            << ": frames vanished without a latched error";
      }
    }
  }
}

TEST(WireDecoder, TruncationAtEveryBoundaryNeverCrashes) {
  const auto pristine = good_stream();
  for (std::size_t cut = 0; cut < pristine.size(); ++cut) {
    FrameDecoder decoder(true);
    ASSERT_TRUE(
        decoder.feed({pristine.data(), cut}))
        << "a pure prefix of a valid stream must not be an error, cut=" << cut;
    count_frames(decoder);
    // The reassembly buffer stays bounded by one frame.
    EXPECT_LE(decoder.buffered_bytes(),
              kMaxFramePayload + kFrameHeaderBytes + sizeof kStreamMagic);
  }
}

TEST(WireDecoder, OversizedLengthRejectedBeforeAllocation) {
  std::vector<std::uint8_t> bytes(std::begin(kStreamMagic),
                                  std::end(kStreamMagic));
  const auto huge = static_cast<std::uint32_t>(kMaxFramePayload + 1);
  bytes.push_back(static_cast<std::uint8_t>(FrameType::kBatch));
  for (int i = 0; i < 4; ++i)
    bytes.push_back(static_cast<std::uint8_t>(huge >> (8 * i)));
  for (int i = 0; i < 4; ++i) bytes.push_back(0);  // crc, never reached
  FrameDecoder decoder(true);
  EXPECT_FALSE(decoder.feed(bytes));
  EXPECT_EQ(decoder.error(), WireError::kOversized);
  // The poisoned decoder must not have buffered anything near `huge`.
  EXPECT_LE(decoder.buffered_bytes(), kFrameHeaderBytes + sizeof kStreamMagic);
}

TEST(WireDecoder, BadMagicRejected) {
  auto bytes = good_stream();
  bytes[0] = 'X';
  FrameDecoder decoder(true);
  EXPECT_FALSE(decoder.feed(bytes));
  EXPECT_EQ(decoder.error(), WireError::kBadMagic);
}

TEST(WireDecoder, UnknownFrameTypeRejected) {
  for (const std::uint8_t type : {std::uint8_t{0}, std::uint8_t{5},
                                  std::uint8_t{0xff}}) {
    std::vector<std::uint8_t> bytes(std::begin(kStreamMagic),
                                    std::end(kStreamMagic));
    bytes.push_back(type);
    for (int i = 0; i < 8; ++i) bytes.push_back(0);  // len=0 + some crc
    FrameDecoder decoder(true);
    EXPECT_FALSE(decoder.feed(bytes));
    EXPECT_EQ(decoder.error(), WireError::kBadType) << "type " << int(type);
  }
}

TEST(WireDecoder, CorruptPayloadFailsCrc) {
  auto bytes = good_stream();
  bytes.back() ^= 0x40;  // last payload byte of the goodbye frame
  FrameDecoder decoder(true);
  EXPECT_FALSE(decoder.feed(bytes));
  EXPECT_EQ(decoder.error(), WireError::kBadCrc);
  // The three frames completed before the damage stay poppable (they were
  // CRC-checked); the damaged goodbye itself is never delivered.
  EXPECT_EQ(count_frames(decoder), 3u);
}

TEST(WireDecoder, PoisonedDecoderIgnoresFurtherInput) {
  auto bytes = good_stream();
  bytes[0] = '?';
  FrameDecoder decoder(true);
  EXPECT_FALSE(decoder.feed(bytes));
  const auto pristine = good_stream();
  EXPECT_FALSE(decoder.feed(pristine));  // still poisoned
  Frame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WirePayloads, ParsersRejectGarbageWithoutCrashing) {
  Rng rng(99);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    Hello hello;
    decode_hello(junk, hello);
    std::vector<Synopsis> batch;
    decode_batch(junk, batch);
    core::SynopsisBatch flat;
    flat.append(sample_synopsis(rng));
    const core::SynopsisBatch before = flat;
    if (!decode_batch(junk, flat)) {
      EXPECT_EQ(flat, before);
    }
    std::uint64_t total = 0;
    decode_goodbye(junk, total);
  }
  // A count prefix far beyond the payload size must be rejected up front,
  // not drive a giant reserve().
  std::vector<std::uint8_t> lying_count = {0xff, 0xff, 0xff, 0xff,
                                           0xff, 0xff, 0xff, 0xff, 0x7f};
  std::vector<Synopsis> batch;
  EXPECT_FALSE(decode_batch(lying_count, batch));
  EXPECT_TRUE(batch.empty());
  core::SynopsisBatch flat;
  EXPECT_FALSE(decode_batch(lying_count, flat));
  EXPECT_TRUE(flat.empty());
}

TEST(WirePayloads, FailedBatchDecodeLeavesTheBatchAsItWas) {
  Rng rng(31);
  std::vector<Synopsis> sent;
  for (int i = 0; i < 8; ++i) sent.push_back(sample_synopsis(rng));
  std::vector<std::uint8_t> body;  // the records, without the count
  for (const auto& s : sent) core::encode_synopsis(s, body);
  const auto payload_of = [&](std::uint64_t count, std::size_t body_bytes) {
    std::vector<std::uint8_t> payload;
    core::put_varint(count, payload);
    payload.insert(payload.end(), body.begin(),
                   body.begin() + static_cast<std::ptrdiff_t>(body_bytes));
    return payload;
  };
  std::vector<std::uint8_t> last;
  core::encode_synopsis(sent.back(), last);
  const std::size_t full = body.size();
  const std::vector<std::vector<std::uint8_t>> damaged = {
      payload_of(sent.size() + 1, full),  // count claims one record more
      payload_of(sent.size() - 1, full),  // one less: a record left over
      payload_of(sent.size(), full - 1),  // last record cut short
      payload_of(sent.size(), full - last.size() + 1),  // ... to its 1st byte
  };
  const Synopsis next = sample_synopsis(rng);
  for (std::size_t d = 0; d < damaged.size(); ++d) {
    core::SynopsisBatch flat;
    flat.append(sample_synopsis(rng));
    const core::SynopsisBatch before = flat;
    EXPECT_FALSE(decode_batch(damaged[d], flat)) << "case " << d;
    EXPECT_EQ(flat, before) << "case " << d;
    // Nothing was left in the point pool for the next record to count.
    flat.append(next);
    ASSERT_EQ(flat.size(), 2u);
    std::vector<Synopsis> values;
    flat.copy_to(values);
    EXPECT_EQ(values[1], next) << "case " << d;
    std::vector<Synopsis> out;
    EXPECT_FALSE(decode_batch(damaged[d], out)) << "case " << d;
    EXPECT_TRUE(out.empty()) << "case " << d;
  }
  core::SynopsisBatch flat;
  ASSERT_TRUE(decode_batch(payload_of(sent.size(), full), flat));
  std::vector<Synopsis> values;
  flat.copy_to(values);
  EXPECT_EQ(values, sent);
}

// ---- server level ----------------------------------------------------------

class ServerCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<SynopsisServer>(&channel_);
    ASSERT_TRUE(server_->start());
  }
  void TearDown() override { server_->stop(); }

  /// Raw TCP connection to the server, bypassing SynopsisClient entirely.
  int dial() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0);
    return fd;
  }

  void send_bytes(int fd, const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t w =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (w <= 0) break;  // server may already have dropped us — fine
      sent += static_cast<std::size_t>(w);
    }
  }

  /// Polls server stats until `done` or a 5 s deadline (damage accounting
  /// happens on the I/O thread, asynchronously to this test).
  bool wait_for(const std::function<bool(const SynopsisServer::Stats&)>& done) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      if (done(server_->stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// Valid prologue + hello, the prefix every post-hello damage test needs.
  static std::vector<std::uint8_t> hello_prefix() {
    std::vector<std::uint8_t> bytes(std::begin(kStreamMagic),
                                    std::end(kStreamMagic));
    std::vector<std::uint8_t> payload;
    encode_hello(Hello{}, payload);
    encode_frame(FrameType::kHello, payload, bytes);
    return bytes;
  }

  core::SynopsisChannel channel_;
  std::unique_ptr<SynopsisServer> server_;
};

TEST_F(ServerCorruption, GarbageBeforeHelloIsCountedAndDropped) {
  const int fd = dial();
  send_bytes(fd, {'H', 'T', 'T', 'P', '/', '1', '.', '1', ' ', 'l', 'o', 'l'});
  EXPECT_TRUE(wait_for([](const SynopsisServer::Stats& s) {
    return s.magic_rejects == 1;
  })) << "magic reject was never counted";
  EXPECT_TRUE(wait_for([this](const SynopsisServer::Stats&) {
    return server_->active_connections() == 0;
  })) << "abused connection was not dropped";
  ::close(fd);
  // Never hello'd: not a session, and nothing was published.
  EXPECT_EQ(server_->stats().sessions, 0u);
  EXPECT_EQ(server_->stats().published, 0u);
}

TEST_F(ServerCorruption, CorruptCrcPoisonsOnlyThatConnection) {
  auto bytes = hello_prefix();
  Rng rng(3);
  std::vector<Synopsis> batch = {sample_synopsis(rng)};
  std::vector<std::uint8_t> payload;
  encode_batch(batch, payload);
  const auto frame_start = bytes.size();
  encode_frame(FrameType::kBatch, payload, bytes);
  bytes.back() ^= 0x01;  // damage the batch payload, CRC now mismatches
  ASSERT_GT(bytes.size(), frame_start);

  const int fd = dial();
  send_bytes(fd, bytes);
  EXPECT_TRUE(wait_for(
      [](const SynopsisServer::Stats& s) { return s.crc_rejects == 1; }));
  ::close(fd);
  EXPECT_EQ(server_->stats().synopses, 0u);  // the damaged batch never lands
}

TEST_F(ServerCorruption, OversizedLengthPrefixIsCountedAndDropped) {
  auto bytes = hello_prefix();
  const auto huge = static_cast<std::uint32_t>(kMaxFramePayload + 7);
  bytes.push_back(static_cast<std::uint8_t>(FrameType::kBatch));
  for (int i = 0; i < 4; ++i)
    bytes.push_back(static_cast<std::uint8_t>(huge >> (8 * i)));
  for (int i = 0; i < 4; ++i) bytes.push_back(0xab);

  const int fd = dial();
  send_bytes(fd, bytes);
  EXPECT_TRUE(wait_for(
      [](const SynopsisServer::Stats& s) { return s.frame_rejects == 1; }));
  ::close(fd);
}

TEST_F(ServerCorruption, MidFrameDisconnectIsCountedAsTruncation) {
  auto bytes = hello_prefix();
  Rng rng(4);
  std::vector<Synopsis> batch = {sample_synopsis(rng), sample_synopsis(rng)};
  std::vector<std::uint8_t> payload;
  encode_batch(batch, payload);
  std::vector<std::uint8_t> frame;
  encode_frame(FrameType::kBatch, payload, frame);
  // Ship the hello plus roughly half the batch frame, then vanish.
  bytes.insert(bytes.end(), frame.begin(), frame.begin() + frame.size() / 2);

  const int fd = dial();
  send_bytes(fd, bytes);
  // Make sure the server has read the partial frame before the FIN.
  EXPECT_TRUE(wait_for(
      [&](const SynopsisServer::Stats& s) { return s.bytes >= bytes.size(); }));
  ::close(fd);
  EXPECT_TRUE(wait_for(
      [](const SynopsisServer::Stats& s) { return s.truncated == 1; }));
}

TEST_F(ServerCorruption, FirstFrameMustBeHello) {
  std::vector<std::uint8_t> bytes(std::begin(kStreamMagic),
                                  std::end(kStreamMagic));
  encode_frame(FrameType::kHeartbeat, {}, bytes);
  const int fd = dial();
  send_bytes(fd, bytes);
  EXPECT_TRUE(wait_for(
      [](const SynopsisServer::Stats& s) { return s.payload_rejects == 1; }));
  ::close(fd);
}

TEST_F(ServerCorruption, UnsupportedHelloVersionIsRejected) {
  std::vector<std::uint8_t> bytes(std::begin(kStreamMagic),
                                  std::end(kStreamMagic));
  std::vector<std::uint8_t> payload;
  encode_hello(Hello{kProtocolVersion + 9, 0, 0}, payload);
  encode_frame(FrameType::kHello, payload, bytes);
  const int fd = dial();
  send_bytes(fd, bytes);
  EXPECT_TRUE(wait_for(
      [](const SynopsisServer::Stats& s) { return s.payload_rejects == 1; }));
  ::close(fd);
}

TEST_F(ServerCorruption, ServerStillServesAfterAbuse) {
  // Round 1: three different damage classes, three dropped connections.
  {
    const int fd = dial();
    send_bytes(fd, {0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0});
    ::close(fd);
  }
  {
    auto bytes = hello_prefix();
    bytes.push_back(0x7f);  // unknown frame type
    for (int i = 0; i < 8; ++i) bytes.push_back(0);
    const int fd = dial();
    send_bytes(fd, bytes);
    ::close(fd);
  }
  {
    auto bytes = hello_prefix();
    // Truncated hello... mid-frame FIN. erase, not resize(size() - 3): GCC
    // 12's -Wstringop-overflow misreads the shrink as a huge grow.
    bytes.erase(bytes.end() - 3, bytes.end());
    const int fd = dial();
    send_bytes(fd, bytes);
    ::close(fd);
  }
  EXPECT_TRUE(wait_for([](const SynopsisServer::Stats& s) {
    return s.magic_rejects + s.frame_rejects + s.truncated >= 2;
  }));

  // Round 2: a well-formed session must still work end to end.
  Rng rng(5);
  std::vector<Synopsis> sent;
  for (int i = 0; i < 100; ++i) sent.push_back(sample_synopsis(rng));
  SynopsisClient::Options options;
  options.port = server_->port();
  options.batch_synopses = 32;
  SynopsisClient client(options);
  for (const auto& s : sent) client.enqueue(s);
  ASSERT_TRUE(client.flush());
  ASSERT_TRUE(client.close());

  EXPECT_TRUE(wait_for([](const SynopsisServer::Stats& s) {
    return s.synopses == 100 && s.goodbyes == 1;
  })) << "server stopped serving after abuse";
  std::vector<Synopsis> received;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (received.size() < sent.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::vector<Synopsis> chunk;
    channel_.drain(chunk);
    server_->ack(chunk.size());
    received.insert(received.end(), chunk.begin(), chunk.end());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    std::vector<std::uint8_t> a, b;
    core::encode_synopsis(sent[i], a);
    core::encode_synopsis(received[i], b);
    EXPECT_EQ(a, b) << "synopsis " << i;
  }
}

}  // namespace
}  // namespace saad::net
