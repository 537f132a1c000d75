#include "net/wire.h"

#include <cstring>

#include "core/varint.h"

namespace saad::net {

namespace {

bool valid_type(std::uint8_t byte) {
  return byte >= static_cast<std::uint8_t>(FrameType::kHello) &&
         byte <= static_cast<std::uint8_t>(FrameType::kGoodbye);
}

}  // namespace

const char* to_string(WireError error) {
  switch (error) {
    case WireError::kNone: return "none";
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kBadType: return "bad-type";
    case WireError::kOversized: return "oversized";
    case WireError::kBadCrc: return "bad-crc";
    case WireError::kBadPayload: return "bad-payload";
    case WireError::kNotHello: return "not-hello";
    case WireError::kBadVersion: return "bad-version";
  }
  return "unknown";
}

void encode_frame(FrameType type, std::span<const std::uint8_t> payload,
                  std::vector<std::uint8_t>& out) {
  core::put_frame(static_cast<std::uint8_t>(type), payload, out);
}

void encode_hello(const Hello& hello, std::vector<std::uint8_t>& out) {
  core::put_varint(hello.version, out);
  core::put_varint(hello.host, out);
  core::put_varint(hello.flags, out);
}

bool decode_hello(std::span<const std::uint8_t> payload, Hello& out) {
  std::uint64_t host = 0;
  if (!core::get_varint(payload, out.version)) return false;
  if (!core::get_varint(payload, host)) return false;
  if (!core::get_varint(payload, out.flags)) return false;
  if (host > 0xFFFF || !payload.empty()) return false;
  out.host = static_cast<core::HostId>(host);
  return true;
}

void encode_batch(std::span<const core::Synopsis> batch,
                  std::vector<std::uint8_t>& out) {
  core::put_varint(batch.size(), out);
  for (const auto& s : batch) core::encode_synopsis(s, out);
}

bool decode_batch(std::span<const std::uint8_t> payload,
                  core::SynopsisBatch& out) {
  std::uint64_t count = 0;
  if (!core::get_varint(payload, count)) return false;
  // Each synopsis encodes to >= 6 bytes; a count beyond what the payload
  // could possibly hold is damage, caught before decoding anything.
  if (count > payload.size()) return false;
  const std::size_t before = out.size();
  std::uint64_t i = 0;
  while (i < count && core::decode_synopsis(payload, out)) ++i;
  if (i < count || !payload.empty()) {
    out.truncate(before);
    return false;
  }
  return true;
}

bool decode_batch(std::span<const std::uint8_t> payload,
                  std::vector<core::Synopsis>& out) {
  core::SynopsisBatch batch;
  if (!decode_batch(payload, batch)) return false;
  batch.copy_to(out);
  return true;
}

void encode_goodbye(std::uint64_t total_synopses,
                    std::vector<std::uint8_t>& out) {
  core::put_varint(total_synopses, out);
}

bool decode_goodbye(std::span<const std::uint8_t> payload,
                    std::uint64_t& total_synopses) {
  return core::get_varint(payload, total_synopses) && payload.empty();
}

// ---- FrameDecoder ----------------------------------------------------------

FrameDecoder::FrameDecoder(bool expect_magic) : magic_pending_(expect_magic) {}

bool FrameDecoder::feed(std::span<const std::uint8_t> data) {
  if (failed()) return false;
  discard_popped();
  buffer_.insert(buffer_.end(), data.begin(), data.end());

  std::size_t pos = sliced_;
  if (magic_pending_) {
    const std::size_t have = std::min(buffer_.size(), sizeof kStreamMagic);
    // An empty buffer has a null data(): UB to memcmp from, even for 0 bytes.
    if (have > 0 && std::memcmp(buffer_.data(), kStreamMagic, have) != 0) {
      error_ = WireError::kBadMagic;
      buffer_.clear();
      return false;
    }
    if (have < sizeof kStreamMagic) return true;  // wait for the rest
    magic_pending_ = false;
    pos = sizeof kStreamMagic;
  }

  while (buffer_.size() - pos >= kFrameHeaderBytes) {
    const core::FrameHeader header =
        core::get_frame_header(buffer_.data() + pos);
    const std::uint32_t len = header.payload_len;
    // Validate before waiting for (or allocating) the payload: a corrupt
    // length must not stall the connection or balloon the buffer.
    if (!valid_type(header.id)) {
      error_ = WireError::kBadType;
      break;
    }
    if (len > kMaxFramePayload) {
      error_ = WireError::kOversized;
      break;
    }
    if (buffer_.size() - pos - kFrameHeaderBytes < len) break;  // partial
    const std::size_t payload = pos + kFrameHeaderBytes;
    if (core::frame_crc(header.id, std::span(buffer_).subspan(payload, len)) !=
        header.crc) {
      error_ = WireError::kBadCrc;
      break;
    }
    ready_.push_back({static_cast<FrameType>(header.id), payload, len});
    pos = payload + len;
  }
  sliced_ = pos;

  if (failed()) {
    buffer_.resize(sliced_);  // the completed frames stay poppable
    return false;
  }
  return true;
}

bool FrameDecoder::next(Frame& out) {
  if (popped_ == ready_.size()) return false;
  const Slice& frame = ready_[popped_++];
  const std::uint8_t* payload = buffer_.data() + frame.offset;
  out.type = frame.type;
  out.payload.assign(payload, payload + frame.size);
  return true;
}

void FrameDecoder::discard_popped() {
  const std::size_t keep =
      popped_ < ready_.size() ? ready_[popped_].offset : sliced_;
  if (keep == 0) return;
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(keep));
  sliced_ -= keep;
  ready_.erase(ready_.begin(),
               ready_.begin() + static_cast<std::ptrdiff_t>(popped_));
  popped_ = 0;
  for (Slice& frame : ready_) frame.offset -= keep;
}

void register_net_metrics() {
  detail::register_server_metrics();
  detail::register_client_metrics();
  detail::register_http_metrics();
}

}  // namespace saad::net
