// Copyright 2026 The QPGC Authors.
//
// Positive control for the thread-safety negative-compile tests: the same
// shapes as the two violation fixtures, but with every contract honored.
// This file MUST compile cleanly under `-Wthread-safety -Werror` — it
// proves the annotation macros and the Mutex/MutexLock wrappers are
// well-formed, so a failure in the sibling fixtures can only come from
// Thread Safety Analysis catching the planted violation (not from an
// unrelated compile error).

#include "util/thread_annotations.h"

namespace {

class Counter {
 public:
  void Increment() {
    qpgc::MutexLock lock(mu_);
    ++value_;
  }

  int Read() const {
    qpgc::MutexLock lock(mu_);
    return value_;
  }

 private:
  mutable qpgc::Mutex mu_;
  int value_ QPGC_GUARDED_BY(mu_) = 0;
};

class Queue {
 public:
  void Push(int v) QPGC_EXCLUDES(mu_) {
    qpgc::MutexLock lock(mu_);
    PushLocked(v);
  }

 private:
  // Must-hold-lock helper: callable only with mu_ held.
  void PushLocked(int v) QPGC_REQUIRES(mu_) { buffer_[count_++ % 8] = v; }

  qpgc::Mutex mu_;
  int buffer_[8] QPGC_GUARDED_BY(mu_) = {};
  int count_ QPGC_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Counter counter;
  counter.Increment();
  Queue queue;
  queue.Push(counter.Read());
  return 0;
}
