// Eager registration of the core pipeline's telemetry families.
//
// Instrumented components register their metric families lazily, on first
// use — a command that exercises only part of the pipeline (e.g. `detect`,
// which reads a trace straight into the analyzer and never builds a
// SynopsisChannel) would therefore expose an incomplete family set. Tools
// that scrape or snapshot the registry call register_pipeline_metrics()
// once at startup so every family is present (zero-valued if unused), in
// both SAAD_METRICS modes.
#pragma once

namespace saad::net {
/// The network layer's saad_net_* and saad_http_* families (synopsis
/// ingestion plus the admin-plane listener), declared here so tools can
/// register them alongside the core set; defined in saad_net
/// (net/wire.cpp) — only call it from binaries that link saad_net.
void register_net_metrics();
}  // namespace saad::net

namespace saad::obs {
/// The pipeline span tracer's saad_span_* families; defined in saad_obs
/// (obs/span.cpp) — only call it from binaries that link saad_obs.
void register_span_metrics();
}  // namespace saad::obs

namespace saad::core {

void register_pipeline_metrics();

namespace detail {
void register_channel_metrics();
/// saad_analyzer_*: LiveAnalyzer's ingested synopses, applied model swaps
/// and the model epoch (core/live_analyzer.h).
void register_analyzer_metrics();
/// saad_detector_*: synopses, windows closed, anomalies, tests and
/// rejections, window-close latency, and the two counters of data the
/// detector moves or flags without a verdict of its own —
/// late_reattributed_total (start window already closed, counted in the
/// oldest open one) and unknown_stage_total (a stage the model never saw).
void register_detector_metrics();
void register_trace_io_metrics();
void register_monitor_metrics();
void register_checkpoint_metrics();
}  // namespace detail

}  // namespace saad::core
