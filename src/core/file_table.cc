#include "core/file_table.h"

#include <functional>

#include "common/check.h"

namespace s4d::core {

FileTable::FileTable(pfs::FileSystem& dservers, pfs::FileSystem& cservers)
    : dservers_(&dservers), cservers_(&cservers) {}

FileIndex FileTable::Intern(const std::string& name) {
  if (last_ < files_.size() && files_[last_].name == name) return last_;
  // Find first: emplace would build (and free) a node on every hit.
  if (auto it = ids_.find(name); it != ids_.end()) return last_ = it->second;
  last_ = static_cast<FileIndex>(files_.size());
  ids_.emplace(name, last_);
  files_.push_back(File{name, std::hash<std::string>{}(name)});
  return last_;
}

const FileTable::File& FileTable::At(FileIndex file) const {
  S4D_CHECK(file < files_.size()) << "unknown file id " << file;
  return files_[file];
}

pfs::FileId FileTable::DServerFile(FileIndex file) {
  S4D_DCHECK(dservers_ != nullptr) << "file table not bound to the DServers";
  File& f = files_[file];
  if (f.dserver == pfs::kInvalidFile) f.dserver = dservers_->OpenOrCreate(f.name);
  return f.dserver;
}

pfs::FileId FileTable::CServerFile(FileIndex file) {
  S4D_DCHECK(cservers_ != nullptr) << "file table not bound to the CServers";
  File& f = files_[file];
  if (f.cserver == pfs::kInvalidFile) {
    f.cserver = cservers_->OpenOrCreate(f.name + ".s4d");
  }
  return f.cserver;
}

}  // namespace s4d::core
