// Fixture: a direct Emit call bypasses the hook macro's null check.
#include "obs/trace.h"

namespace scanshare {

void Hook(obs::Tracer* tracer, sim::Micros now) {
  tracer->Emit(obs::EventKind::kPoolHit, now, 0, 42);
}

void HookByRef(obs::Tracer& tracer, sim::Micros now) {
  tracer.Emit(obs::EventKind::kPoolMiss, now, 0, 42);
}

}  // namespace scanshare
