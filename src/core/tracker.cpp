#include "core/tracker.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace saad::core {

TaskContext::TaskContext(HostId host, StageId stage, TaskUid uid,
                         UsTime start) {
  synopsis_.log_points.reserve(8);
  reset(host, stage, uid, start);
}

void TaskContext::reset(HostId host, StageId stage, TaskUid uid,
                        UsTime start) {
  synopsis_.host = host;
  synopsis_.stage = stage;
  synopsis_.uid = uid;
  synopsis_.start = start;
  synopsis_.duration = 0;
  synopsis_.log_points.clear();
}

void TaskContext::on_log(LogPointId point, UsTime now) {
  synopsis_.duration = now - synopsis_.start;
  // Sorted small-vector upsert; tasks touch few distinct log points, so a
  // linear scan beats a hash map here.
  auto& counts = synopsis_.log_points;
  auto it = std::lower_bound(
      counts.begin(), counts.end(), point,
      [](const LogPointCount& c, LogPointId p) { return c.point < p; });
  if (it != counts.end() && it->point == point) {
    it->count++;
  } else {
    counts.insert(it, LogPointCount{point, 1});
  }
}

/// Thread-local slot holding the calling thread's open task, reused from
/// task to task. The destructor flushes a pending task at thread exit:
/// dispatcher-worker termination inference (the paper uses Java finalizers;
/// we use RAII).
struct TlSlot {
  TaskExecutionTracker* owner = nullptr;  // tracker of the open task, if any
  TaskContext ctx;

  ~TlSlot() { flush(); }

  /// Emits the open task, if any, to the tracker that started it.
  void flush() {
    if (owner != nullptr) std::exchange(owner, nullptr)->emit(ctx);
  }
};

namespace {

thread_local TlSlot tl_slot;

}  // namespace

TaskExecutionTracker::TaskExecutionTracker(HostId host, const Clock* clock,
                                           SynopsisFn emit)
    : host_(host), clock_(clock), emit_fn_(std::move(emit)) {
  assert(clock_ != nullptr);
}

TaskExecutionTracker::~TaskExecutionTracker() {
  // If this thread still holds a task owned by this tracker, drop it so the
  // thread_local destructor does not touch a dead tracker. Worker threads
  // must not outlive the tracker (documented contract).
  if (tl_slot.owner == this) tl_slot.owner = nullptr;
}

void TaskExecutionTracker::set_context(StageId stage) {
  // Producer-consumer inference: the thread is about to start a new task, so
  // the one it has open ended, whichever tracker started it.
  TlSlot& slot = tl_slot;
  slot.flush();
  const TaskUid uid = next_uid_.fetch_add(1, std::memory_order_relaxed);
  slot.ctx.reset(host_, stage, uid, clock_->now());
  slot.owner = this;
}

void TaskExecutionTracker::end_context() {
  if (tl_slot.owner == this) tl_slot.flush();
}

std::unique_ptr<TaskContext> TaskExecutionTracker::begin_task(StageId stage) {
  const TaskUid uid = next_uid_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<TaskContext>(host_, stage, uid, clock_->now());
}

void TaskExecutionTracker::end_task(std::unique_ptr<TaskContext> task) {
  if (task == nullptr) return;
  if (current_ == task.get()) current_ = nullptr;
  emit(*task);
}

void TaskExecutionTracker::on_log(LogPointId point) {
  TaskContext* ctx = current_;
  if (ctx == nullptr && tl_slot.owner == this) ctx = &tl_slot.ctx;
  if (ctx == nullptr) {
    unattributed_logs_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ctx->on_log(point, clock_->now());
}

void TaskExecutionTracker::emit(const TaskContext& ctx) {
  if (emit_fn_) emit_fn_(ctx.synopsis());
  tasks_completed_.add();
}

}  // namespace saad::core
