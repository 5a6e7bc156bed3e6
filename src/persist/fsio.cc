#include "persist/fsio.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace scuba {

Status WriteFileDurably(const std::string& path, const std::string& data,
                        size_t length) {
  const size_t n = std::min(length, data.size());
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  size_t written = 0;
  while (written < n) {
    ssize_t rc = ::write(fd, data.data() + written, n - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      Status s = Status::IoError("write " + path + ": " + std::strerror(errno));
      ::close(fd);
      return s;
    }
    written += static_cast<size_t>(rc);
  }
  if (::fdatasync(fd) != 0) {
    Status s =
        Status::IoError("fdatasync " + path + ": " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path,
                                     std::string_view what) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open " + std::string(what) + ": " + path);
  }
  std::string data;
  char buf[1 << 16];
  for (;;) {
    ssize_t rc = ::read(fd, buf, sizeof(buf));
    if (rc == 0) break;
    if (rc < 0) {
      if (errno == EINTR) continue;
      Status s = Status::IoError("read " + path + ": " + std::strerror(errno));
      ::close(fd);
      return s;
    }
    data.append(buf, static_cast<size_t>(rc));
  }
  ::close(fd);
  return data;
}

Status SyncDirectory(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("open dir " + dir + ": " + std::strerror(errno));
  }
  if (::fsync(fd) != 0 && errno != EINVAL) {  // EINVAL: fs without dir fsync
    Status s =
        Status::IoError("fsync dir " + dir + ": " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace scuba
