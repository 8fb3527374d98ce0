// MPI-IO-flavoured application API over an IoDispatch.
//
// Mirrors the five functions the paper's prototype modifies (§IV-B):
// MPI_File_open, MPI_File_read, MPI_File_write, MPI_File_seek,
// MPI_File_close — as per-rank file handles with an independent file
// pointer, plus explicit-offset read_at/write_at variants. The layer is
// asynchronous (completion callbacks carry the simulated completion time);
// workload drivers chain completions to model blocking MPI I/O.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "mpiio/io_dispatch.h"
#include "sim/engine.h"

namespace s4d::mpiio {

enum class Whence { kSet, kCurrent };

class MpiIoLayer;

// A per-rank open file. Move-only value handle: a copy would close the
// file a second time, so copies do not compile, and a moved-from handle is
// invalid (closing it is a no-op). Closing is explicit (as in MPI), but the
// destructor tolerates un-closed handles.
class MpiFile {
 public:
  MpiFile() = default;
  MpiFile(const MpiFile&) = delete;
  MpiFile& operator=(const MpiFile&) = delete;
  MpiFile(MpiFile&& other) noexcept { *this = std::move(other); }
  MpiFile& operator=(MpiFile&& other) noexcept {
    if (this != &other) {
      layer_ = std::exchange(other.layer_, nullptr);
      name_ = std::move(other.name_);
      rank_ = other.rank_;
      position_ = other.position_;
    }
    return *this;
  }

  bool valid() const { return layer_ != nullptr; }
  const std::string& name() const { return name_; }
  int rank() const { return rank_; }
  byte_count position() const { return position_; }

 private:
  friend class MpiIoLayer;
  MpiIoLayer* layer_ = nullptr;
  std::string name_;
  int rank_ = 0;
  byte_count position_ = 0;
};

class MpiIoLayer {
 public:
  MpiIoLayer(sim::Engine& engine, IoDispatch& dispatch)
      : engine_(engine), dispatch_(dispatch) {}

  // MPI_File_open. Reference-counts per file name so the dispatch sees one
  // Open per logical file (first opener) and one Close (last closer).
  MpiFile Open(int rank, const std::string& name);

  // MPI_File_close.
  void Close(MpiFile& file);

  // MPI_File_seek.
  void Seek(MpiFile& file, byte_count offset, Whence whence = Whence::kSet);

  // MPI_File_read / MPI_File_write at the handle's file pointer; the
  // pointer advances immediately (the next operation's offset is known at
  // issue time, as with MPI's nonblocking semantics).
  void Read(MpiFile& file, byte_count size, IoCompletion done,
            std::uint64_t content_token = 0);
  void Write(MpiFile& file, byte_count size, IoCompletion done,
             std::uint64_t content_token = 0);

  // MPI_File_read_at / MPI_File_write_at — explicit offset, pointer
  // untouched.
  void ReadAt(MpiFile& file, byte_count offset, byte_count size,
              IoCompletion done, std::uint64_t content_token = 0);
  void WriteAt(MpiFile& file, byte_count offset, byte_count size,
               IoCompletion done, std::uint64_t content_token = 0);

  IoDispatch& dispatch() { return dispatch_; }
  sim::Engine& engine() { return engine_; }

 private:
  void Submit(device::IoKind kind, MpiFile& file, byte_count offset,
              byte_count size, IoCompletion done, std::uint64_t token);

  sim::Engine& engine_;
  IoDispatch& dispatch_;
  std::unordered_map<std::string, int> open_counts_;
};

}  // namespace s4d::mpiio
