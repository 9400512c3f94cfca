// The wire protocol's attacker-facing boundary: every header field must
// round-trip bit-exactly, and every malformed input — truncated, garbled,
// oversized lengths, corrupt CRCs, wrong magic — must be REJECTED by
// decode_* without sizing any allocation from attacker-controlled bytes
// (decode is allocation-free by contract; these tests run under ASan+UBSan
// in the sanitizer CI job, so any over-read of the hostile buffers is
// caught, not just wrong answers). A seeded deterministic fuzz loop flips
// bytes at every position and accepts any verdict except a crash or a
// false Ok.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "net/frame.hpp"

using namespace xorec::net;

namespace {

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A fully-populated valid frame (2 payloads of 16 bytes) for mutation.
std::vector<uint8_t> sample_frame(FrameHeader* header_out = nullptr) {
  FrameHeader h;
  h.type = FrameType::ReconstructRequest;
  h.request_id = 0x0123456789abcdefull;
  h.k = 6;
  h.m = 4;
  h.frag_len = 16;
  h.present_bitmap = 0b0000110;  // ids 1, 2
  h.erased_bitmap = 0b0001000;   // id 3
  h.spec_len = 7;
  h.payload_count = 2;
  std::vector<uint8_t> a(16, 0xAA), b(16, 0xBB);
  const uint8_t* payloads[] = {a.data(), b.data()};
  if (header_out) *header_out = h;
  return build_frame(h, "rs(6,4)", payloads);
}

}  // namespace

// ---- round trips -------------------------------------------------------------

TEST(NetFrame, HeaderRoundTripsEveryField) {
  FrameHeader h;
  h.version = wire::kVersion;
  h.type = FrameType::Response;
  h.request_id = 0xfeedfacecafebeefull;
  h.k = 12;
  h.m = 4;
  h.frag_len = 4096;
  h.erased_bitmap = 0x8001;
  h.present_bitmap = 0x7ffe;
  h.spec_len = 9;
  h.payload_count = 14;
  h.body_crc = 0xdeadbeef;

  uint8_t buf[wire::kFrameHeaderSize];
  encode_frame_header(h, buf);
  FrameHeader d;
  ASSERT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::Ok);
  EXPECT_EQ(d.version, h.version);
  EXPECT_EQ(d.type, h.type);
  EXPECT_EQ(d.request_id, h.request_id);
  EXPECT_EQ(d.k, h.k);
  EXPECT_EQ(d.m, h.m);
  EXPECT_EQ(d.frag_len, h.frag_len);
  EXPECT_EQ(d.erased_bitmap, h.erased_bitmap);
  EXPECT_EQ(d.present_bitmap, h.present_bitmap);
  EXPECT_EQ(d.spec_len, h.spec_len);
  EXPECT_EQ(d.payload_count, h.payload_count);
  EXPECT_EQ(d.body_crc, h.body_crc);
  EXPECT_EQ(d.body_size(), 9u + 14u * 4096u);
}

TEST(NetFrame, FrameRoundTripsThroughView) {
  FrameHeader h;
  const std::vector<uint8_t> frame = sample_frame(&h);
  ASSERT_GT(frame.size(), wire::kFrameHeaderSize);

  FrameHeader d;
  ASSERT_EQ(decode_frame_header(frame.data(), frame.size(), d), FrameError::Ok);
  FrameView view;
  ASSERT_EQ(bind_frame_body(d, frame.data() + wire::kFrameHeaderSize,
                            frame.size() - wire::kFrameHeaderSize, view),
            FrameError::Ok);
  EXPECT_EQ(view.spec, "rs(6,4)");
  ASSERT_EQ(view.payloads.size(), 2u);
  ASSERT_EQ(view.present_ids, (std::vector<uint32_t>{1, 2}));
  ASSERT_EQ(view.erased_ids, (std::vector<uint32_t>{3}));
  EXPECT_EQ(view.payloads[0][0], 0xAA);
  EXPECT_EQ(view.payloads[1][15], 0xBB);
  // Zero-copy: the spans point INTO the frame buffer, no copies were made.
  EXPECT_EQ(view.payloads[0].data(),
            frame.data() + wire::kFrameHeaderSize + 7);
}

TEST(NetFrame, PacketRoundTripsEveryField) {
  PacketHeader h;
  h.flags = kPacketFlagParity;
  h.group = 0x1122334455667788ull;
  h.strip = 7;
  h.k = 6;
  h.m = 4;
  h.payload_len = 32;
  h.spec_len = 7;
  std::vector<uint8_t> payload(32, 0x5C);
  const std::vector<uint8_t> pkt = build_packet(h, "rs(6,4)", payload);
  ASSERT_EQ(pkt.size(), wire::kPacketHeaderSize + 7 + 32);

  PacketView view;
  ASSERT_EQ(decode_packet(pkt.data(), pkt.size(), view), FrameError::Ok);
  EXPECT_EQ(view.header.flags, kPacketFlagParity);
  EXPECT_EQ(view.header.group, h.group);
  EXPECT_EQ(view.header.strip, 7u);
  EXPECT_EQ(view.header.k, 6u);
  EXPECT_EQ(view.header.m, 4u);
  EXPECT_EQ(view.spec, "rs(6,4)");
  ASSERT_EQ(view.payload.size(), 32u);
  EXPECT_EQ(view.payload.data(), pkt.data() + wire::kPacketHeaderSize + 7);
}

// ---- rejection paths ---------------------------------------------------------

TEST(NetFrame, TruncatedInputsAreRejectedNotRead) {
  const std::vector<uint8_t> frame = sample_frame();
  FrameHeader d;
  // Every prefix shorter than the fixed header: Truncated, nothing else.
  for (size_t len = 0; len < wire::kFrameHeaderSize; ++len) {
    // Heap-allocate exactly `len` so ASan catches any read past the end.
    std::vector<uint8_t> prefix(frame.begin(), frame.begin() + len);
    EXPECT_EQ(decode_frame_header(prefix.data(), prefix.size(), d),
              FrameError::Truncated);
  }
  // A body shorter or longer than the header promises is Truncated too.
  ASSERT_EQ(decode_frame_header(frame.data(), frame.size(), d), FrameError::Ok);
  FrameView view;
  EXPECT_EQ(bind_frame_body(d, frame.data() + wire::kFrameHeaderSize,
                            d.body_size() - 1, view),
            FrameError::Truncated);
  EXPECT_EQ(bind_frame_body(d, frame.data() + wire::kFrameHeaderSize,
                            d.body_size() + 1, view),
            FrameError::Truncated);
}

TEST(NetFrame, BadMagicVersionTypeAndCrcAreDistinguished) {
  const std::vector<uint8_t> frame = sample_frame();
  FrameHeader d;

  std::vector<uint8_t> bad = frame;
  bad[0] ^= 0xFF;  // magic is the first field
  EXPECT_EQ(decode_frame_header(bad.data(), bad.size(), d), FrameError::BadMagic);

  // Any other corrupt header byte fails the header CRC before its field is
  // ever interpreted — version/type verdicts need a re-signed header.
  bad = frame;
  bad[4] ^= 0xFF;
  EXPECT_EQ(decode_frame_header(bad.data(), bad.size(), d), FrameError::BadCrc);

  FrameHeader h;
  sample_frame(&h);
  h.version = 9;
  uint8_t buf[wire::kFrameHeaderSize];
  encode_frame_header(h, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::BadVersion);

  sample_frame(&h);
  h.type = static_cast<FrameType>(99);
  encode_frame_header(h, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::BadType);

  // Body corruption: the header parses, the body CRC says no.
  bad = frame;
  bad.back() ^= 0x01;
  ASSERT_EQ(decode_frame_header(bad.data(), bad.size(), d), FrameError::Ok);
  FrameView view;
  EXPECT_EQ(bind_frame_body(d, bad.data() + wire::kFrameHeaderSize,
                            bad.size() - wire::kFrameHeaderSize, view),
            FrameError::BadCrc);
}

TEST(NetFrame, OversizedLengthFieldsNeverReachAllocation) {
  // Re-sign headers whose length fields exceed every cap: decode must fail
  // with LimitExceeded BEFORE any caller could size a buffer from them.
  FrameHeader h;
  sample_frame(&h);
  uint8_t buf[wire::kFrameHeaderSize];
  FrameHeader d;

  FrameHeader big = h;
  big.spec_len = wire::kMaxSpecLen + 1;
  encode_frame_header(big, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::LimitExceeded);

  big = h;
  big.frag_len = wire::kMaxFragLen + 1;
  encode_frame_header(big, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::LimitExceeded);

  big = h;  // payload_count past the fragment cap
  big.payload_count = wire::kMaxFragments + 1;
  big.present_bitmap = ~0ull;
  encode_frame_header(big, buf);
  EXPECT_NE(decode_frame_header(buf, sizeof buf, d), FrameError::Ok);

  big = h;  // individually legal, together past kMaxBody
  big.frag_len = wire::kMaxFragLen;
  big.payload_count = 16;
  big.present_bitmap = 0xFFFF;
  encode_frame_header(big, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::LimitExceeded);

  // build_frame refuses to construct what decode would reject.
  EXPECT_THROW(build_frame(big, "rs(6,4)", nullptr), std::invalid_argument);
}

TEST(NetFrame, InconsistentBitmapsAreRejected) {
  FrameHeader h;
  sample_frame(&h);
  uint8_t buf[wire::kFrameHeaderSize];
  FrameHeader d;

  FrameHeader bad = h;  // popcount(present) != payload_count
  bad.present_bitmap = 0b1;
  encode_frame_header(bad, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::Inconsistent);

  bad = h;  // a fragment both present and erased
  bad.erased_bitmap = bad.present_bitmap;
  encode_frame_header(bad, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::Inconsistent);
}

TEST(NetFrame, PacketRejectionPaths) {
  PacketHeader h;
  h.group = 3;
  h.strip = 0;
  h.k = 6;
  h.m = 4;
  h.payload_len = 16;
  h.spec_len = 7;
  std::vector<uint8_t> payload(16, 0x11);
  const std::vector<uint8_t> pkt = build_packet(h, "rs(6,4)", payload);
  PacketView view;

  for (size_t len = 0; len < pkt.size(); ++len) {
    std::vector<uint8_t> prefix(pkt.begin(), pkt.begin() + len);
    EXPECT_NE(decode_packet(prefix.data(), prefix.size(), view), FrameError::Ok);
  }

  std::vector<uint8_t> bad = pkt;
  bad[0] ^= 0xFF;
  EXPECT_EQ(decode_packet(bad.data(), bad.size(), view), FrameError::BadMagic);
  bad = pkt;
  bad[8] ^= 0xFF;  // header byte -> header CRC
  EXPECT_EQ(decode_packet(bad.data(), bad.size(), view), FrameError::BadCrc);
  bad = pkt;
  bad.back() ^= 0x01;  // payload byte -> body CRC
  EXPECT_EQ(decode_packet(bad.data(), bad.size(), view), FrameError::BadCrc);

  // A datagram longer than header + spec + payload is damage, not padding.
  bad = pkt;
  bad.push_back(0);
  EXPECT_EQ(decode_packet(bad.data(), bad.size(), view), FrameError::Truncated);

  // An oversized payload_len dies at the limit check, not at an allocation.
  PacketHeader big = h;
  big.payload_len = static_cast<uint32_t>(wire::kMaxDatagram);
  uint8_t hdr[wire::kPacketHeaderSize];
  encode_packet_header(big, hdr);
  std::vector<uint8_t> huge(hdr, hdr + sizeof hdr);
  huge.resize(wire::kPacketHeaderSize + 7 + big.payload_len, 0);
  EXPECT_EQ(decode_packet(huge.data(), huge.size(), view), FrameError::LimitExceeded);
  EXPECT_THROW(build_packet(big, "rs(6,4)", std::span<const uint8_t>(huge)),
               std::invalid_argument);
}

// ---- seeded fuzz -------------------------------------------------------------

TEST(NetFrame, SeededByteFlipFuzzNeverFalselyAccepts) {
  // Flip 1-3 bytes of a valid frame at seeded positions, 4000 rounds: decode
  // may say Ok only when header + body CRCs genuinely still pass (flips that
  // cancel are practically impossible in this budget), and must never read
  // out of bounds (ASan enforces) or crash. Same for packets.
  const std::vector<uint8_t> frame = sample_frame();
  PacketHeader ph;
  ph.group = 1;
  ph.strip = 2;
  ph.k = 6;
  ph.m = 4;
  ph.payload_len = 24;
  ph.spec_len = 7;
  std::vector<uint8_t> ppay(24, 0x3C);
  const std::vector<uint8_t> pkt = build_packet(ph, "rs(6,4)", ppay);

  uint64_t state = 0xF00DFEED;
  const auto next = [&] { return state = mix64(state); };
  for (int round = 0; round < 4000; ++round) {
    std::vector<uint8_t> mut = (round & 1) ? pkt : frame;
    const int flips = 1 + static_cast<int>(next() % 3);
    for (int f = 0; f < flips; ++f)
      mut[next() % mut.size()] ^= static_cast<uint8_t>(1 + next() % 255);
    // Also truncate to a random length every fourth round.
    if (round % 4 == 0) mut.resize(next() % (mut.size() + 1));

    if (round & 1) {
      PacketView view;
      const FrameError err = decode_packet(mut.data(), mut.size(), view);
      if (err == FrameError::Ok) EXPECT_EQ(mut, pkt);
    } else {
      FrameHeader d;
      const FrameError err = decode_frame_header(mut.data(), mut.size(), d);
      if (err != FrameError::Ok) continue;
      FrameView view;
      const FrameError berr =
          bind_frame_body(d, mut.data() + wire::kFrameHeaderSize,
                          mut.size() - wire::kFrameHeaderSize, view);
      if (berr == FrameError::Ok) EXPECT_EQ(mut, frame);
    }
  }
}

TEST(NetFrame, CrcChainsAcrossBuffers) {
  const uint8_t a[] = {1, 2, 3, 4};
  const uint8_t b[] = {5, 6, 7};
  const uint8_t ab[] = {1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(crc32(b, sizeof b, crc32(a, sizeof a)), crc32(ab, sizeof ab));
  EXPECT_NE(crc32(a, sizeof a), 0u);
  EXPECT_STREQ(frame_error_name(FrameError::BadCrc), "bad_crc");
}

// ---- CRC-32 implementations --------------------------------------------------

namespace {

/// Bit at a time, straight from the definition: the reference both the
/// table loop and the carry-less fold are checked against.
uint32_t crc32_bitwise_update(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int b = 0; b < 8; ++b) reg = (reg >> 1) ^ (0xEDB88320u & (0u - (reg & 1)));
  return reg;
}

uint32_t crc32_bitwise(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t reg = ~seed;
  for (size_t i = 0; i < len; ++i) reg = crc32_bitwise_update(reg, data[i]);
  return ~reg;
}

using Crc32Fn = uint32_t (*)(const uint8_t*, size_t, uint32_t);

/// Every length 0..2100 at every start offset 0..63 (so every alignment,
/// fold count and tail size), with and without a seed; a 1 MiB buffer; and
/// chaining at every split point of a buffer that spans the fold threshold.
void expect_matches_bitwise_reference(Crc32Fn fn) {
  std::vector<uint8_t> buf(1u << 20);
  uint64_t state = 0xC5C5C5C5;
  for (auto& b : buf) b = static_cast<uint8_t>(state = mix64(state));

  for (const uint32_t seed : {0u, 0x9E3779B9u}) {
    for (size_t offset = 0; offset < 64; ++offset) {
      const uint8_t* p = buf.data() + offset;
      uint32_t reg = ~seed;  // reference register after `len` bytes
      for (size_t len = 0; len <= 2100; ++len) {
        ASSERT_EQ(fn(p, len, seed), ~reg)
            << "len " << len << " offset " << offset << " seed " << seed;
        reg = crc32_bitwise_update(reg, p[len]);
      }
    }
  }

  EXPECT_EQ(fn(buf.data(), buf.size(), 0), crc32_bitwise(buf.data(), buf.size(), 0));
  EXPECT_EQ(fn(buf.data() + 3, buf.size() - 3, 0xFFFFFFFFu),
            crc32_bitwise(buf.data() + 3, buf.size() - 3, 0xFFFFFFFFu));

  const size_t n = 300;
  const uint32_t whole = fn(buf.data(), n, 0);
  for (size_t split = 0; split <= n; ++split)
    ASSERT_EQ(fn(buf.data() + split, n - split, fn(buf.data(), split, 0)), whole)
        << "split " << split;
}

}  // namespace

TEST(NetFrame, Crc32KnownAnswerPinsTheIeeeWireFormat) {
  const auto* check = reinterpret_cast<const uint8_t*>("123456789");
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(detail::crc32_portable(check, 9, 0), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0, 0x12345678u), 0x12345678u);
}

TEST(NetFrame, Crc32PortablePathMatchesBitwiseReference) {
  expect_matches_bitwise_reference(detail::crc32_portable);
}

TEST(NetFrame, Crc32ClmulPathMatchesBitwiseReference) {
#if defined(XOREC_HAVE_PCLMUL)
  if (!detail::cpu_has_pclmul()) GTEST_SKIP() << "CPU lacks pclmul/sse4.1";
  const auto* check = reinterpret_cast<const uint8_t*>("123456789");
  EXPECT_EQ(detail::crc32_clmul(check, 9, 0), 0xCBF43926u);
  expect_matches_bitwise_reference(detail::crc32_clmul);
#else
  GTEST_SKIP() << "built without the pclmul CRC path";
#endif
}

TEST(NetFrame, Crc32DispatchMatchesBitwiseReference) {
  std::vector<uint8_t> buf(40 * 1024 + 7);
  uint64_t state = 0x5EED;
  for (auto& b : buf) b = static_cast<uint8_t>(state = mix64(state));
  for (const size_t len : {size_t{52}, size_t{64}, size_t{4096}, buf.size()})
    EXPECT_EQ(crc32(buf.data(), len), crc32_bitwise(buf.data(), len, 0)) << len;
}

// ---- empty specs ---------------------------------------------------------------

TEST(NetFrame, EmptySpecPingFrameAndSpeclessPacketBuild) {
  // A default-constructed string_view has a null data(); building from it
  // must not hand that pointer to memcpy (UBSan checks this in CI).
  FrameHeader h;
  h.type = FrameType::Ping;
  h.request_id = 7;
  const std::vector<uint8_t> ping = build_frame(h, std::string_view{}, nullptr);
  ASSERT_EQ(ping.size(), wire::kFrameHeaderSize);
  FrameHeader d;
  ASSERT_EQ(decode_frame_header(ping.data(), ping.size(), d), FrameError::Ok);
  FrameView view;
  ASSERT_EQ(bind_frame_body(d, ping.data() + wire::kFrameHeaderSize, 0, view),
            FrameError::Ok);
  EXPECT_EQ(view.header.type, FrameType::Ping);
  EXPECT_TRUE(view.spec.empty());

  PacketHeader ph;
  ph.group = 3;
  ph.strip = 1;
  ph.k = 6;
  ph.m = 4;
  const std::vector<uint8_t> payload(32, 0x5A);
  for (const std::span<const uint8_t> body :
       {std::span<const uint8_t>(payload), std::span<const uint8_t>()}) {
    const std::vector<uint8_t> pkt = build_packet(ph, std::string_view{}, body);
    PacketView pv;
    ASSERT_EQ(decode_packet(pkt.data(), pkt.size(), pv), FrameError::Ok);
    EXPECT_TRUE(pv.spec.empty());
    EXPECT_TRUE(std::equal(pv.payload.begin(), pv.payload.end(), body.begin(), body.end()));
  }
}
