#include "core/telemetry.h"

namespace saad::core {

void register_pipeline_metrics() {
  detail::register_channel_metrics();
  detail::register_analyzer_metrics();
  detail::register_detector_metrics();
  detail::register_trace_io_metrics();
  detail::register_monitor_metrics();
  detail::register_checkpoint_metrics();
}

}  // namespace saad::core
