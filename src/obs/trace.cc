#include "obs/trace.h"

namespace scanshare::obs {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kScanAdmit: return "scan_admit";
    case EventKind::kScanJoin: return "scan_join";
    case EventKind::kScanLeader: return "scan_leader";
    case EventKind::kScanTrailer: return "scan_trailer";
    case EventKind::kThrottleInsert: return "throttle_insert";
    case EventKind::kThrottleRelease: return "throttle_release";
    case EventKind::kCapSuppress: return "cap_suppress";
    case EventKind::kScanEnd: return "scan_end";
    case EventKind::kRegroup: return "regroup";
    case EventKind::kPoolHit: return "pool_hit";
    case EventKind::kPoolMiss: return "pool_miss";
    case EventKind::kPoolEvict: return "pool_evict";
    case EventKind::kDiskRead: return "disk_read";
    case EventKind::kDiskSeek: return "disk_seek";
    case EventKind::kDiskFault: return "disk_fault";
    case EventKind::kQueryBegin: return "query_begin";
    case EventKind::kQueryEnd: return "query_end";
    case EventKind::kIoSubmit: return "io_submit";
    case EventKind::kIoComplete: return "io_complete";
    case EventKind::kIoQueueFull: return "io_queue_full";
    case EventKind::kIoPrefetchHit: return "io_prefetch_hit";
    case EventKind::kIoPrefetchDrop: return "io_prefetch_drop";
    case EventKind::kAdmit: return "admit";
    case EventKind::kQueue: return "queue";
    case EventKind::kShed: return "shed";
  }
  return "unknown";
}

bool IsLifecycleKind(EventKind kind) {
  switch (kind) {
    case EventKind::kScanAdmit:
    case EventKind::kScanJoin:
    case EventKind::kScanLeader:
    case EventKind::kScanTrailer:
    case EventKind::kThrottleInsert:
    case EventKind::kThrottleRelease:
    case EventKind::kCapSuppress:
    case EventKind::kScanEnd:
    case EventKind::kQueryBegin:
    case EventKind::kQueryEnd:
    // Admission decisions are lifecycle-grade: a handful per job, and their
    // relative order vs. query begin/end is exactly what the admission
    // golden pins.
    case EventKind::kAdmit:
    case EventKind::kQueue:
    case EventKind::kShed:
      return true;
    case EventKind::kRegroup:
    case EventKind::kPoolHit:
    case EventKind::kPoolMiss:
    case EventKind::kPoolEvict:
    case EventKind::kDiskRead:
    case EventKind::kDiskSeek:
    case EventKind::kDiskFault:
    case EventKind::kIoSubmit:
    case EventKind::kIoComplete:
    case EventKind::kIoQueueFull:
    case EventKind::kIoPrefetchHit:
    case EventKind::kIoPrefetchDrop:
      return false;
  }
  return false;
}

}  // namespace scanshare::obs
