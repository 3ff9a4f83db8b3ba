#include "io/file_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace scanshare::io {

namespace {

std::string ErrnoMessage(const char* what, const std::string& path) {
  std::string msg = what;
  msg += " '";
  msg += path;
  msg += "': ";
  msg += std::strerror(errno);
  return msg;
}

}  // namespace

StatusOr<std::unique_ptr<FileIoBackend>> FileIoBackend::Open(
    storage::DiskManager* disk, std::string path) {
  if (disk == nullptr) {
    return Status::InvalidArgument("FileIoBackend: null disk manager");
  }
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECT | O_CLOEXEC);
  const bool direct = fd >= 0;
  if (fd < 0) {
    // tmpfs (and some other filesystems) refuse O_DIRECT with EINVAL;
    // buffered reads are the documented fallback, recorded in RealIoStats.
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  }
  if (fd < 0) {
    return Status::NotFound(ErrnoMessage("FileIoBackend: cannot open", path));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const Status err =
        Status::Internal(ErrnoMessage("FileIoBackend: fstat", path));
    ::close(fd);
    return err;
  }
  const uint64_t needed =
      disk->num_pages() * static_cast<uint64_t>(disk->page_size());
  if (st.st_size < 0 || static_cast<uint64_t>(st.st_size) < needed) {
    ::close(fd);
    return Status::InvalidArgument(
        "FileIoBackend: '" + path + "' smaller than the page store (" +
        std::to_string(st.st_size) + " < " + std::to_string(needed) +
        " bytes); run WriteTableFile first");
  }
  return std::unique_ptr<FileIoBackend>(
      new FileIoBackend(disk, std::move(path), fd, direct));
}

FileIoBackend::FileIoBackend(storage::DiskManager* disk, std::string path,
                             int fd, bool direct)
    : disk_(disk), path_(std::move(path)), fd_(fd) {
  {
    MutexLock lock(mu_);
    real_.direct_io = direct;
  }
  workers_.reserve(kWorkers);
  for (size_t i = 0; i < kWorkers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

FileIoBackend::~FileIoBackend() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  job_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  if (fd_ >= 0) ::close(fd_);
}

Status FileIoBackend::StartBytes(sim::PageId first, uint64_t count,
                                 uint8_t* dest, ReadToken* token) {
  const uint64_t page_bytes = disk_->page_size();
  Job job;
  job.offset = first * page_bytes;
  job.length = static_cast<size_t>(count * page_bytes);
  job.dest = dest;
  {
    MutexLock lock(mu_);
    job.token = next_token_++;
    // Submission-ordered real counters: the seek rule mirrors the sim
    // disk's successor test but over byte offsets.
    ++real_.reads;
    real_.pages_read += count;
    real_.bytes_read += job.length;
    if (job.offset != next_sequential_offset_) ++real_.seeks;
    next_sequential_offset_ = job.offset + job.length;
    queue_.push_back(job);
  }
  job_ready_.notify_one();
  *token = job.token;
  return Status::OK();
}

Status FileIoBackend::Join(ReadToken token) {
  if (token == kNoToken) return Status::OK();
  MutexLock lock(mu_);
  for (;;) {
    auto it = done_.find(token);
    if (it != done_.end()) {
      Status result = std::move(it->second);
      done_.erase(it);
      return result;
    }
    job_done_.wait(mu_);
  }
}

RealIoStats FileIoBackend::real_stats() const {
  MutexLock lock(mu_);
  return real_;
}

Status FileIoBackend::ReadJob(const Job& job) const {
  size_t done = 0;
  while (done < job.length) {
    const ssize_t n =
        ::pread(fd_, job.dest + done, job.length - done,
                static_cast<off_t>(job.offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(ErrnoMessage("FileIoBackend: pread", path_));
    }
    if (n == 0) {
      return Status::OutOfRange("FileIoBackend: unexpected EOF at offset " +
                                std::to_string(job.offset + done));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

void FileIoBackend::WorkerLoop() {
  for (;;) {
    Job job;
    {
      MutexLock lock(mu_);
      // Explicit wait loop (not the predicate overload) so the analysis
      // sees mu_ held across the guarded reads — same idiom as ThreadPool.
      while (!stop_ && queue_.empty()) job_ready_.wait(mu_);
      if (queue_.empty()) return;  // Drain before exiting: tokens must join.
      job = queue_.front();
      queue_.pop_front();
    }
    Status result = ReadJob(job);
    {
      MutexLock lock(mu_);
      done_.emplace(job.token, std::move(result));
    }
    job_done_.notify_all();
  }
}

Status FileIoBackend::WriteTableFile(const storage::DiskManager& disk,
                                     const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    return Status::Internal(ErrnoMessage("WriteTableFile: cannot create",
                                         path));
  }
  const uint32_t page_bytes = disk.page_size();
  Status result = Status::OK();
  for (sim::PageId page = 0; page < disk.num_pages(); ++page) {
    StatusOr<const uint8_t*> data = disk.PageData(page);
    if (!data.ok()) {
      result = data.status();
      break;
    }
    size_t written = 0;
    while (written < page_bytes) {
      const ssize_t n =
          ::write(fd, data.value() + written, page_bytes - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        result = Status::Internal(ErrnoMessage("WriteTableFile: write", path));
        break;
      }
      written += static_cast<size_t>(n);
    }
    if (!result.ok()) break;
  }
  if (::close(fd) != 0 && result.ok()) {
    result = Status::Internal(ErrnoMessage("WriteTableFile: close", path));
  }
  return result;
}

}  // namespace scanshare::io
