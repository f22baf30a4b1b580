#include "src/graph/epoch.h"

namespace gdbmicro {

uint64_t EpochManager::Pin() {
  std::unique_lock<std::mutex> lock(mu_);
  reader_cv_.wait(lock, [this] { return !applying_; });
  ++pins_;
  return current_;
}

void EpochManager::Unpin() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pins_ == 0) return;  // double-unpin guard
  if (--pins_ == 0) writer_cv_.notify_all();
}

void EpochManager::BeginApply() {
  std::unique_lock<std::mutex> lock(mu_);
  applying_ = true;  // gate closed: new Pin() calls block from here on
  writer_cv_.wait(lock, [this] { return pins_ == 0; });
}

uint64_t EpochManager::EndApply() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t published = ++current_;
  applying_ = false;
  reader_cv_.notify_all();
  return published;
}

uint64_t EpochManager::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t EpochManager::pinned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pins_;
}

bool EpochManager::writer_waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applying_ && pins_ > 0;
}

}  // namespace gdbmicro
