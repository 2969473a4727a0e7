#include "parallel/spill_sink.h"

#include <fstream>
#include <system_error>
#include <type_traits>
#include <utility>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace gmark {

// Shard files are raw memory dumps of the edge buffers.
static_assert(std::is_trivially_copyable_v<Edge>,
              "SpillSink writes Edge structs as raw bytes");

namespace {

/// Distinguishes run directories of sinks living in the same process;
/// the pid component distinguishes concurrent processes.
std::atomic<uint64_t> run_counter{0};

uint64_t CurrentPid() {
#ifdef _WIN32
  return static_cast<uint64_t>(_getpid());
#else
  return static_cast<uint64_t>(getpid());
#endif
}

}  // namespace

SpillSink::SpillSink(Options options) : options_(std::move(options)) {}

SpillSink::~SpillSink() { RemoveRunDir(); }

Status SpillSink::AddShards(size_t count) {
  if (run_dir_.empty()) GMARK_RETURN_NOT_OK(CreateRunDir());
  shards_.resize(shards_.size() + count);
  return Status::OK();
}

Status SpillSink::CreateRunDir() {
  std::error_code ec;
  std::filesystem::path parent = options_.dir.empty()
                                     ? std::filesystem::temp_directory_path(ec)
                                     : std::filesystem::path(options_.dir);
  if (ec) {
    return Status::IOError("no temp directory for spill files: " +
                           ec.message());
  }
  run_dir_ = parent / ("gmark-spill-" + std::to_string(CurrentPid()) + "-" +
                       std::to_string(run_counter.fetch_add(1)));
  std::filesystem::create_directories(run_dir_, ec);
  if (ec || !std::filesystem::is_directory(run_dir_)) {
    Status st = Status::IOError("cannot create spill directory " +
                                run_dir_.string() +
                                (ec ? ": " + ec.message() : ""));
    run_dir_.clear();
    return st;
  }
  return Status::OK();
}

std::filesystem::path SpillSink::ShardPath(size_t index) const {
  return run_dir_ / ("shard-" + std::to_string(index) + ".edges");
}

void SpillSink::TrackResident(size_t bytes) const {
  size_t resident =
      resident_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = peak_resident_bytes_.load(std::memory_order_relaxed);
  while (resident > peak &&
         !peak_resident_bytes_.compare_exchange_weak(
             peak, resident, std::memory_order_relaxed)) {
  }
}

void SpillSink::PutShard(size_t index, std::vector<Edge> edges) {
  Shard& shard = shards_[index];
  shard.edge_count = edges.size();
  if (edges.empty()) return;

  const size_t bytes = edges.size() * sizeof(Edge);
  TrackResident(bytes);

  std::ofstream out(ShardPath(index),
                    std::ios::binary | std::ios::trunc | std::ios::out);
  if (out) {
    out.write(reinterpret_cast<const char*>(edges.data()),
              static_cast<std::streamsize>(bytes));
    out.flush();
  }
  if (!out) {
    shard.status = Status::IOError("cannot write spill shard " +
                                   ShardPath(index).string());
  }
  resident_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

Status SpillSink::Finish() {
  if (run_dir_.empty() && !shards_.empty()) {
    return Status::Internal("SpillSink used without a successful AddShards");
  }
  for (const Shard& shard : shards_) {
    GMARK_RETURN_NOT_OK(shard.status);
  }
  return Status::OK();
}

size_t SpillSink::TotalEdges() const {
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.edge_count;
  return total;
}

Status SpillSink::VisitRange(size_t begin, size_t end,
                             const EdgeBlockVisitor& visit) const {
  const size_t block_edges =
      options_.read_buffer_edges < 1 ? 1 : options_.read_buffer_edges;
  // Per-call buffer: concurrent visits from different build tasks must
  // not share read state. Its bytes count toward the resident
  // high-water mark — read buffers are edge memory too.
  std::vector<Edge> block;
  size_t tracked = 0;
  Status status;
  for (size_t index = begin;
       status.ok() && index < end && index < shards_.size(); ++index) {
    const Shard& shard = shards_[index];
    if (!shard.status.ok()) {
      status = shard.status;
      break;
    }
    if (shard.edge_count == 0) continue;
    std::ifstream in(ShardPath(index), std::ios::binary | std::ios::in);
    if (!in) {
      status = Status::IOError("cannot reopen spill shard " +
                               ShardPath(index).string());
      break;
    }
    size_t remaining = shard.edge_count;
    while (remaining > 0) {
      const size_t n = remaining < block_edges ? remaining : block_edges;
      if (n > tracked) {
        TrackResident((n - tracked) * sizeof(Edge));
        tracked = n;
      }
      block.resize(n);
      in.read(reinterpret_cast<char*>(block.data()),
              static_cast<std::streamsize>(n * sizeof(Edge)));
      if (static_cast<size_t>(in.gcount()) != n * sizeof(Edge)) {
        status = Status::IOError("short read from spill shard " +
                                 ShardPath(index).string());
        break;
      }
      status = visit({block.data(), block.size()});
      if (!status.ok()) break;
      remaining -= n;
    }
  }
  resident_bytes_.fetch_sub(tracked * sizeof(Edge),
                            std::memory_order_relaxed);
  return status;
}

void SpillSink::ReleaseRange(size_t begin, size_t end) {
  for (size_t index = begin; index < end && index < shards_.size(); ++index) {
    if (shards_[index].edge_count == 0) continue;
    std::error_code ec;
    std::filesystem::remove(ShardPath(index), ec);  // Best effort: temp data.
  }
}

void SpillSink::RemoveRunDir() {
  if (run_dir_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(run_dir_, ec);  // Best effort: temp data.
  run_dir_.clear();
}

}  // namespace gmark
