// Task execution tracker (paper §3.2, §4.1): tracks the execution flow of
// each task from the calls the task makes to the logging library, and emits a
// Synopsis at task termination.
//
// Two usage modes, matching the paper's two staging models:
//
//  * Thread-local mode (real threads). Server threads call
//    `set_context(stage)` at the beginning of a stage; an open context on the
//    same thread is closed first, whichever tracker opened it — that is the
//    producer-consumer termination inference ("the thread is about to start
//    a new task"). For dispatcher-worker stages, the pending context is
//    flushed automatically when the thread exits (RAII on the thread_local
//    slot — the C++ analog of the paper's finalize() trick), or explicitly
//    via `end_context()`.
//
//  * Explicit mode (deterministic simulator). Logical tasks are not bound to
//    OS threads, so the simulator creates contexts with `begin_task`, binds
//    one around each code region that logs (TaskBinding RAII), and closes it
//    with `end_task`.
//
// The hot path (`on_log`) is a couple of branches and a small-vector upsert;
// this is what keeps SAAD's overhead at "practically zero" (paper Fig. 7).
// A thread-local task takes no lock and allocates nothing once its thread
// has run one task: each thread reuses one TaskContext, whose counts are the
// emitted Synopsis itself, and counts completions in its own cache-line
// cell. The one write all threads share is the uid counter's +1 per task.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/clock.h"
#include "common/thread_index.h"
#include "core/synopsis.h"

namespace saad::core {

/// Per-task in-memory record, kept as the synopsis the task will emit: host,
/// stage, uid, start time, duration so far, and the log-point frequency
/// vector (paper's per-task map, kept as a small sorted vector because tasks
/// touch few distinct points).
class TaskContext {
 public:
  TaskContext() = default;
  TaskContext(HostId host, StageId stage, TaskUid uid, UsTime start);

  /// Starts a new task in this context; the counts keep their capacity.
  void reset(HostId host, StageId stage, TaskUid uid, UsTime start);

  void on_log(LogPointId point, UsTime now);

  /// The terminal synopsis. Duration is start -> last log point
  /// (paper §3.3.1); a task that logged nothing has duration 0.
  const Synopsis& synopsis() const { return synopsis_; }

  StageId stage() const { return synopsis_.stage; }
  TaskUid uid() const { return synopsis_.uid; }
  UsTime start() const { return synopsis_.start; }

 private:
  Synopsis synopsis_;  // log_points sorted by point id
};

class TaskExecutionTracker {
 public:
  using SynopsisFn = std::function<void(const Synopsis&)>;

  /// `emit` is invoked for every completed task, on the thread that ends it.
  /// Calls from different threads run concurrently, so `emit` must be
  /// thread-safe; the Synopsis it gets is valid only during the call.
  /// `clock` must outlive the tracker.
  TaskExecutionTracker(HostId host, const Clock* clock, SynopsisFn emit);
  ~TaskExecutionTracker();

  TaskExecutionTracker(const TaskExecutionTracker&) = delete;
  TaskExecutionTracker& operator=(const TaskExecutionTracker&) = delete;

  // ---- Thread-local mode ----------------------------------------------

  /// Begin a new task for the calling thread (the paper's
  /// setContext(stageId) stage delimiter). Closes the thread's open task
  /// first, and emits it to its own tracker when that is another one.
  void set_context(StageId stage);

  /// Explicitly end the calling thread's open task, if any.
  void end_context();

  // ---- Explicit mode (simulator) ---------------------------------------

  std::unique_ptr<TaskContext> begin_task(StageId stage);
  void end_task(std::unique_ptr<TaskContext> task);

  /// Bind/unbind the context that receives on_log in explicit mode.
  void bind(TaskContext* task) { current_ = task; }
  void unbind() { current_ = nullptr; }
  TaskContext* bound() const { return current_; }

  // ---- Called by Logger -------------------------------------------------

  /// Attributes the log call to the current task (explicit binding first,
  /// then the thread-local slot). Unattributed calls are counted and dropped.
  void on_log(LogPointId point);

  // ---- Introspection ------------------------------------------------------

  HostId host() const { return host_; }
  std::uint64_t tasks_completed() const { return tasks_completed_.value(); }
  std::uint64_t unattributed_logs() const {
    return unattributed_logs_.load(std::memory_order_relaxed);
  }

 private:
  friend struct TlSlot;

  void emit(const TaskContext& ctx);

  // Read on every call, written only at construction or by explicit-mode
  // bind(): kept off the lines that the threads write.
  HostId host_;
  const Clock* clock_;
  SynopsisFn emit_fn_;
  TaskContext* current_ = nullptr;  // explicit-mode binding
  alignas(64) std::atomic<TaskUid> next_uid_{1};
  std::atomic<std::uint64_t> unattributed_logs_{0};
  StripedCounter tasks_completed_;
};

/// RAII binding for explicit mode: binds `task` to `tracker` for the scope.
class TaskBinding {
 public:
  TaskBinding(TaskExecutionTracker& tracker, TaskContext* task)
      : tracker_(tracker) {
    tracker_.bind(task);
  }
  ~TaskBinding() { tracker_.unbind(); }

  TaskBinding(const TaskBinding&) = delete;
  TaskBinding& operator=(const TaskBinding&) = delete;

 private:
  TaskExecutionTracker& tracker_;
};

}  // namespace saad::core
