// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// The benchmark's five workloads (see README.md for why each exists).
// Building a case generates its tables from the seed; that step is what
// the benchmark times as set-up. Every workload uses 32 KiB pages, 16-page
// extents and the paper's group-and-throttle policy pair.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/engine.h"
#include "service/scan_service.h"

namespace scanshare::benchmark {

/// Workload names, in the order the full benchmark runs them.
const std::vector<std::string>& WorkloadNames();

/// True for the workload driven by service::ScanService rather than
/// exec::Database::Run.
bool IsServiceWorkload(const std::string& name);

/// An engine workload: its database, shared-mode run config and streams.
/// `push_file_gate` marks the workload whose push pipeline is also run
/// once over the real-file backend.
struct EngineCase {
  std::unique_ptr<exec::Database> db;
  exec::RunConfig config;
  std::vector<exec::StreamSpec> streams;
  bool push_file_gate = false;
};

/// The closed-loop service workload.
struct ServiceCase {
  std::unique_ptr<exec::Database> db;
  std::vector<service::ServiceTable> tables;
  service::ServiceOptions options;
};

/// Builds engine workload `name` from `seed`. `smoke` shrinks it to a few
/// hundred milliseconds of work.
[[nodiscard]] StatusOr<EngineCase> BuildEngineCase(const std::string& name,
                                                   uint64_t seed, bool smoke);

/// Builds the service workload from `seed`.
[[nodiscard]] StatusOr<ServiceCase> BuildServiceCase(uint64_t seed,
                                                     bool smoke);

}  // namespace scanshare::benchmark
