// The bundle every instrumented component receives: one shared metrics
// registry plus one tracer. Components take a nullable Observability* —
// null means "not observed" and every instrumentation site reduces to a
// single pointer check, which is what keeps the disabled path free.
//
// The bundle is engine-free (spans are stamped with caller-provided
// SimTime), so it can be constructed before the Testbed that owns the
// engine and handed down through the config structs.
#pragma once

#include "obs/metrics.h"
#include "obs/span.h"

namespace s4d::obs {

struct Observability {
  MetricsRegistry metrics;
  Tracer tracer;

  bool tracing() const { return tracer.enabled(); }
};

}  // namespace s4d::obs
