// Dense file ids for the S4D middleware.
//
// The paper's CDT and DMT records are fixed integer tuples (§III-C/D), so
// every middleware table keys a file by a small dense id instead of its
// name. The cache resolves a name to its id once per request (or at
// MPI_File_open) and hands the id to the Identifier, the CDT, the DMT, the
// Redirector and the Rebuilder. Names stay where they leave the
// middleware: the IoDispatch interface, the DMT's persisted record keys,
// logs and audit messages.
//
// Ids are assigned in first-seen order and never reused. A table bound to
// the DServer and CServer file systems also caches each file's pfs::FileId
// on both tiers. The cache file's name is the original name plus ".s4d".
// Each is opened on its first use, because a file system places its files
// (FileBaseLba) in the order it creates them.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "pfs/file_system.h"

namespace s4d::core {

using FileIndex = std::uint32_t;

class FileTable {
 public:
  // Names only: the single-structure tests and the DMT's recovery use it.
  FileTable() = default;
  FileTable(pfs::FileSystem& dservers, pfs::FileSystem& cservers);

  FileTable(const FileTable&) = delete;
  FileTable& operator=(const FileTable&) = delete;

  // The id of `name`, assigned on first sight.
  FileIndex Intern(const std::string& name);

  const std::string& name(FileIndex file) const { return At(file).name; }
  // std::hash<std::string> of the name, computed once.
  std::size_t name_hash(FileIndex file) const { return At(file).name_hash; }

  // The file on the DServers, and its cache file on the CServers. Bound
  // tables only; each is opened on its first use and cached.
  pfs::FileId DServerFile(FileIndex file);
  pfs::FileId CServerFile(FileIndex file);

 private:
  struct File {
    std::string name;
    std::size_t name_hash = 0;
    pfs::FileId dserver = pfs::kInvalidFile;
    pfs::FileId cserver = pfs::kInvalidFile;
  };

  const File& At(FileIndex file) const;

  pfs::FileSystem* dservers_ = nullptr;
  pfs::FileSystem* cservers_ = nullptr;
  std::unordered_map<std::string, FileIndex> ids_;
  std::vector<File> files_;
};

}  // namespace s4d::core
