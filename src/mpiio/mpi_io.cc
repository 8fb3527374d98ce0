#include "mpiio/mpi_io.h"

#include "common/check.h"

namespace s4d::mpiio {

MpiFile MpiIoLayer::Open(int rank, const std::string& name) {
  if (++open_counts_[name] == 1) {
    dispatch_.Open(name);
  }
  MpiFile file;
  file.layer_ = this;
  file.name_ = name;
  file.rank_ = rank;
  file.position_ = 0;
  return file;
}

void MpiIoLayer::Close(MpiFile& file) {
  if (!file.valid()) return;
  auto it = open_counts_.find(file.name_);
  S4D_CHECK(it != open_counts_.end() && it->second > 0)
      << "closing " << file.name_ << " (rank " << file.rank_
      << "), which is not open";
  if (--it->second == 0) {
    open_counts_.erase(it);
    dispatch_.Close(file.name_);
  }
  file.layer_ = nullptr;
}

void MpiIoLayer::Seek(MpiFile& file, byte_count offset, Whence whence) {
  S4D_CHECK(file.valid()) << "seek on a closed handle of " << file.name_;
  switch (whence) {
    case Whence::kSet:
      file.position_ = offset;
      break;
    case Whence::kCurrent:
      file.position_ += offset;
      break;
  }
  S4D_CHECK(file.position_ >= 0)
      << "seek to negative offset " << file.position_ << " in " << file.name_;
}

void MpiIoLayer::Read(MpiFile& file, byte_count size, IoCompletion done,
                      std::uint64_t content_token) {
  S4D_CHECK(file.valid()) << "read on a closed handle of " << file.name_;
  const byte_count offset = file.position_;
  file.position_ += size;
  Submit(device::IoKind::kRead, file, offset, size, std::move(done),
         content_token);
}

void MpiIoLayer::Write(MpiFile& file, byte_count size, IoCompletion done,
                       std::uint64_t content_token) {
  S4D_CHECK(file.valid()) << "write on a closed handle of " << file.name_;
  const byte_count offset = file.position_;
  file.position_ += size;
  Submit(device::IoKind::kWrite, file, offset, size, std::move(done),
         content_token);
}

void MpiIoLayer::ReadAt(MpiFile& file, byte_count offset, byte_count size,
                        IoCompletion done, std::uint64_t content_token) {
  Submit(device::IoKind::kRead, file, offset, size, std::move(done),
         content_token);
}

void MpiIoLayer::WriteAt(MpiFile& file, byte_count offset, byte_count size,
                         IoCompletion done, std::uint64_t content_token) {
  Submit(device::IoKind::kWrite, file, offset, size, std::move(done),
         content_token);
}

void MpiIoLayer::Submit(device::IoKind kind, MpiFile& file, byte_count offset,
                        byte_count size, IoCompletion done,
                        std::uint64_t token) {
  S4D_CHECK(file.valid()) << "I/O on a closed handle of " << file.name_;
  FileRequest request;
  request.file = file.name_;
  request.rank = file.rank_;
  request.offset = offset;
  request.size = size;
  request.content_token = token;
  if (kind == device::IoKind::kRead) {
    dispatch_.Read(request, std::move(done));
  } else {
    dispatch_.Write(request, std::move(done));
  }
}

}  // namespace s4d::mpiio
