// The inter-node packet carried by a fabric.
//
// FLIPC's optimistic transport sends each fixed-size message as exactly one
// packet with no acknowledgment or feedback; the packet header carries the
// protocol id (the Paragon message coprocessor ran several protocols in one
// framework — FLIPC coexisted with the OSF/1 AD protocols) plus source and
// destination endpoint addresses.
#ifndef SRC_SIMNET_PACKET_H_
#define SRC_SIMNET_PACKET_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "src/base/types.h"

namespace flipc::simnet {

// Protocol ids multiplexed over one fabric (the engine's protocol framework
// dispatches on this).
inline constexpr std::uint32_t kProtocolFlipc = 1;
inline constexpr std::uint32_t kProtocolKkt = 2;
inline constexpr std::uint32_t kProtocolKernelIpc = 3;  // stand-in for OSF/1 AD traffic
inline constexpr std::uint32_t kProtocolBaseline = 4;   // NX/PAM/SUNMOS models

// Modeled wire overhead per packet (routing header, CRC); counts toward
// serialization time but is not part of the payload.
inline constexpr std::size_t kPacketWireHeaderBytes = 16;

// A packet's payload bytes. Up to kInlineCapacity bytes — the payload of the
// largest FLIPC message on the Figure 4 axis (1024 B less the 8-byte
// header) — live inside the packet, so building, moving and copying a FLIPC
// packet never touches the heap. Larger payloads (the baseline models on
// the DES) fall back to a heap buffer. Copies and moves
// touch only the used bytes; the inline buffer is never zero-filled.
class PacketPayload {
 public:
  static constexpr std::size_t kInlineCapacity = 1016;

  // User-provided (not defaulted) so even value-initialization leaves the
  // inline buffer unfilled.
  PacketPayload() noexcept {}
  PacketPayload(const PacketPayload& other) { assign(other.data(), other.data() + other.size_); }
  PacketPayload(PacketPayload&& other) noexcept { TakeFrom(other); }
  PacketPayload& operator=(const PacketPayload& other) {
    if (this != &other) {
      assign(other.data(), other.data() + other.size_);
    }
    return *this;
  }
  PacketPayload& operator=(PacketPayload&& other) noexcept {
    if (this != &other) {
      TakeFrom(other);
    }
    return *this;
  }
  ~PacketPayload() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::byte* data() { return heap_ != nullptr ? heap_.get() : inline_; }
  const std::byte* data() const { return heap_ != nullptr ? heap_.get() : inline_; }

  // Replaces the contents with [first, last).
  void assign(const std::byte* first, const std::byte* last) {
    const auto n = static_cast<std::size_t>(last - first);
    Reserve(n, /*keep=*/0);
    if (n != 0) {
      std::memcpy(data(), first, n);
    }
    size_ = n;
  }

  // Resizes to `n` bytes; bytes past the old size read as zero.
  void resize(std::size_t n) {
    Reserve(n, /*keep=*/size_ < n ? size_ : n);
    if (n > size_) {
      std::memset(data() + size_, 0, n - size_);
    }
    size_ = n;
  }

  void clear() { size_ = 0; }

 private:
  // Makes room for `n` bytes, preserving the first `keep`.
  void Reserve(std::size_t n, std::size_t keep) {
    if (n <= Capacity()) {
      return;
    }
    auto grown = std::make_unique<std::byte[]>(n);
    if (keep != 0) {
      std::memcpy(grown.get(), data(), keep);
    }
    heap_ = std::move(grown);
    heap_capacity_ = n;
  }

  std::size_t Capacity() const { return heap_ != nullptr ? heap_capacity_ : kInlineCapacity; }

  // Steals a heap buffer, or copies the used inline bytes; leaves `other`
  // empty.
  void TakeFrom(PacketPayload& other) {
    if (other.heap_ != nullptr) {
      heap_ = std::move(other.heap_);
      heap_capacity_ = other.heap_capacity_;
    } else {
      heap_.reset();
      std::memcpy(inline_, other.inline_, other.size_);
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  std::size_t size_ = 0;
  std::size_t heap_capacity_ = 0;
  std::unique_ptr<std::byte[]> heap_;
  std::byte inline_[kInlineCapacity];
};

struct Packet {
  NodeId src_node = kInvalidNode;
  NodeId dst_node = kInvalidNode;
  std::uint32_t protocol = 0;
  std::uint32_t src_addr = 0xffffffffu;  // packed flipc::Address
  std::uint32_t dst_addr = 0xffffffffu;  // packed flipc::Address
  std::uint64_t seq = 0;                 // per-sender sequence / protocol token
  std::uint32_t kind = 0;                // protocol-specific discriminator
  PacketPayload payload;

  std::size_t wire_size() const { return payload.size() + kPacketWireHeaderBytes; }
};

}  // namespace flipc::simnet

#endif  // SRC_SIMNET_PACKET_H_
