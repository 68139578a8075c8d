#include "net/frame_buffer.h"

namespace barb::net {

const ParsedHeaders& FrameBuffer::parsed() const {
  if (parsed_ == nullptr) {
    parsed_ = std::make_unique<ParsedHeaders>(ParsedHeaders::parse(bytes()));
    if (pool_ != nullptr) ++pool_->stats_.parses;
  } else if (pool_ != nullptr) {
    ++pool_->stats_.parse_hits;
  }
  return *parsed_;
}

BufferPool::BufferPool(BufferPoolConfig config) : config_(config) {}

BufferPool::~BufferPool() {
  for (auto& list : free_) {
    for (FrameBuffer* buf : list) delete buf;
    list.clear();
  }
  // Live buffers (if any remain at teardown) are heap-freed by their last
  // FrameBufferRef; mark them pool-less so they do not touch the dead pool.
  // In practice the default pool outlives every simulation object, and
  // test-local pools are destroyed after their packets.
}

BufferPool& BufferPool::instance() {
  // Thread-local, not process-global: the parallel sweep runner
  // (core/runner.h) executes independent simulations on worker threads, and
  // a shared pool would turn every frame acquisition/release into a data
  // race. Each worker gets its own pool; buffers never migrate between
  // threads because a simulation (and everything it allocates) lives and
  // dies on the thread that runs it. Within one thread the zero-copy flood
  // path is exactly as allocation-free as before.
  thread_local BufferPool pool;
  return pool;
}

int BufferPool::class_for(std::size_t n) {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    if (n <= kSizeClasses[c]) return static_cast<int>(c);
  }
  return -1;
}

FrameBuffer* BufferPool::acquire(std::size_t expected_size) {
  ++stats_.acquisitions;
  const int cls = class_for(expected_size);
  if (cls >= 0) {
    auto& list = free_[static_cast<std::size_t>(cls)];
    if (!list.empty()) {
      FrameBuffer* buf = list.back();
      list.pop_back();
      ++stats_.pool_hits;
      ++live_per_class_[static_cast<std::size_t>(cls)];
      ++live_;
      return buf;
    }
    if (live_per_class_[static_cast<std::size_t>(cls)] <
        config_.max_live_per_class) {
      auto* buf = new FrameBuffer();
      buf->pool_ = this;
      buf->size_class_ = static_cast<std::int8_t>(cls);
      buf->storage_.reserve(kSizeClasses[static_cast<std::size_t>(cls)]);
      ++stats_.pool_misses;
      ++live_per_class_[static_cast<std::size_t>(cls)];
      ++live_;
      return buf;
    }
  }
  // Oversize frame or exhausted class: plain heap buffer, freed on release.
  auto* buf = new FrameBuffer();
  buf->pool_ = this;
  buf->size_class_ = -1;
  buf->storage_.reserve(expected_size);
  ++stats_.heap_fallbacks;
  ++live_;
  return buf;
}

void BufferPool::release(FrameBuffer* buf) {
  BARB_ASSERT(buf->refs_ == 0 && buf->pool_ == this);
  BARB_ASSERT(live_ > 0);
  --live_;
  buf->parsed_.reset();
  if (buf->size_class_ >= 0) {
    const auto cls = static_cast<std::size_t>(buf->size_class_);
    BARB_ASSERT(live_per_class_[cls] > 0);
    --live_per_class_[cls];
    if (free_[cls].size() < config_.max_free_per_class) {
      buf->storage_.clear();  // keeps capacity: the point of recycling
      free_[cls].push_back(buf);
      ++stats_.recycled;
      return;
    }
  }
  ++stats_.heap_frees;
  delete buf;
}

FrameBufferRef BufferPool::create(std::span<const std::uint8_t> bytes) {
  FrameBuffer* buf = acquire(bytes.size());
  buf->storage_.assign(bytes.begin(), bytes.end());
  return FrameBufferRef(buf);
}

FrameBufferRef BufferPool::adopt(std::vector<std::uint8_t> bytes) {
  ++stats_.acquisitions;
  ++stats_.adopted;
  ++live_;
  auto* buf = new FrameBuffer();
  buf->pool_ = this;
  buf->size_class_ = -1;
  buf->storage_ = std::move(bytes);
  return FrameBufferRef(buf);
}

BufferPool::Builder BufferPool::build(std::size_t expected_size) {
  return Builder(acquire(expected_size));
}

BufferPool::Builder::~Builder() {
  if (buf_ != nullptr) {
    // Abandoned without seal(): hand the empty buffer straight back.
    buf_->storage_.clear();
    buf_->pool_->release(buf_);
  }
}

FrameBufferRef BufferPool::Builder::seal() {
  BARB_ASSERT(buf_ != nullptr);
  FrameBuffer* buf = buf_;
  buf_ = nullptr;
  return FrameBufferRef(buf);
}

std::size_t BufferPool::free_buffers() const {
  std::size_t total = 0;
  for (const auto& list : free_) total += list.size();
  return total;
}

std::size_t BufferPool::free_buffers(std::size_t size_class) const {
  BARB_ASSERT(size_class < kNumClasses);
  return free_[size_class].size();
}

}  // namespace barb::net
