// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// IoBackend contract tests: the sim backend serves extents in place (the
// store's images, `dest` never written), the file backend round-trips a
// real table image into `dest` with sane seek accounting, and both
// backends surface the same faults at the same protocol step (Charge vs
// StartBytes) — the parity FetchSlow's push branch depends on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "io/file_backend.h"
#include "io/sim_backend.h"
#include "testutil.h"

namespace scanshare {
namespace {

std::unique_ptr<exec::Database> MakeDb(uint64_t pages = 64) {
  return testutil::MakeLineitemDb(pages, /*seed=*/7);
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// Fill byte of a destination buffer before StartBytes, so a test can tell
/// whether the backend wrote it.
constexpr uint8_t kUnwritten = 0xA5;

/// Reads [first, first+count) through the full three-step protocol and
/// compares every page a consumer reads — the store's image when the
/// backend answers kInPlace (`in_place`, and then `dest` must be left
/// unwritten), else `dest` — against a copy of the page store taken before
/// the read.
void ExpectBackendBytesMatchStore(io::IoBackend* backend,
                                  storage::DiskManager* dm, sim::PageId first,
                                  uint64_t count, bool in_place) {
  const uint32_t page_size = backend->page_size();
  const size_t bytes = count * page_size;
  std::vector<uint8_t> store(bytes);
  for (uint64_t i = 0; i < count; ++i) {
    auto image = dm->PageData(first + i);
    ASSERT_TRUE(image.ok());
    std::memcpy(store.data() + i * page_size, image.value(), page_size);
  }
  auto charge = backend->Charge(first, count, /*now=*/0);
  ASSERT_TRUE(charge.ok()) << charge.status().ToString();
  io::AlignedBuffer buf = io::AllocateIoBuffer(bytes);
  std::memset(buf.get(), kUnwritten, bytes);
  io::ReadToken token = io::kNoToken;
  Status start = backend->StartBytes(first, count, buf.get(), &token);
  ASSERT_TRUE(start.ok()) << start.ToString();
  EXPECT_EQ(token == io::kInPlace, in_place);
  Status join = backend->Join(token);
  ASSERT_TRUE(join.ok()) << join.ToString();
  if (in_place) {
    const std::vector<uint8_t> unwritten(bytes, kUnwritten);
    EXPECT_EQ(std::memcmp(buf.get(), unwritten.data(), bytes), 0)
        << "an in-place answer wrote dest";
  }
  for (uint64_t i = 0; i < count; ++i) {
    const uint8_t* page = buf.get() + i * page_size;
    if (in_place) {
      auto image = dm->PageData(first + i);
      ASSERT_TRUE(image.ok());
      page = image.value();
    }
    EXPECT_EQ(std::memcmp(page, store.data() + i * page_size, page_size), 0)
        << "page " << first + i << " differs from the page store";
  }
}

TEST(SimIoBackendTest, BytesMatchPageStore) {
  auto db = MakeDb();
  io::SimIoBackend backend(db->disk_manager());
  EXPECT_STREQ(backend.name(), "sim");
  ExpectBackendBytesMatchStore(&backend, db->disk_manager(), 0, 4,
                               /*in_place=*/true);
  ExpectBackendBytesMatchStore(&backend, db->disk_manager(), 17, 3,
                               /*in_place=*/true);
  // No real device behind it.
  EXPECT_EQ(backend.real_stats().reads, 0u);
  EXPECT_EQ(backend.real_stats().bytes_read, 0u);
}

TEST(SimIoBackendTest, ChargeFaultChargesNothing) {
  auto db = MakeDb();
  io::SimIoBackend backend(db->disk_manager());
  sim::DiskFaultOptions faults;
  faults.fail_nth_read = 1;
  db->env()->disk().SetFaults(faults);
  const sim::DiskStats before = db->env()->disk().stats();
  auto charge = backend.Charge(0, 4, 0);
  EXPECT_FALSE(charge.ok());
  EXPECT_EQ(charge.status().code(), Status::Code::kCorruption);
  const sim::DiskStats after = db->env()->disk().stats();
  EXPECT_EQ(after.requests, before.requests);
  EXPECT_EQ(after.pages_read, before.pages_read);
  db->env()->disk().SetFaults(sim::DiskFaultOptions{});
}

TEST(SimIoBackendTest, MediaFaultSurfacesAtStartBytesAfterCharge) {
  auto db = MakeDb();
  io::SimIoBackend backend(db->disk_manager());
  db->disk_manager()->SetPageDataFaultRange(2, 3);
  const uint64_t requests = db->env()->disk().stats().requests;
  auto charge = backend.Charge(0, 4, 0);
  ASSERT_TRUE(charge.ok());  // The charge itself succeeds...
  io::AlignedBuffer buf = io::AllocateIoBuffer(4 * backend.page_size());
  io::ReadToken token = io::kNoToken;
  Status start = backend.StartBytes(0, 4, buf.get(), &token);
  EXPECT_FALSE(start.ok());  // ...the page check hits the media fault.
  EXPECT_EQ(start.code(), Status::Code::kCorruption);
  EXPECT_EQ(db->disk_manager()->page_data_faults_injected(), 1u);
  EXPECT_EQ(db->env()->disk().stats().requests, requests + 1);  // Kept.
  db->disk_manager()->ClearPageDataFaults();
}

TEST(FileIoBackendTest, RoundTripAndSeekAccounting) {
  auto db = MakeDb();
  const std::string path = TempPath("io_backend_roundtrip.tbl");
  Status write = io::FileIoBackend::WriteTableFile(*db->disk_manager(), path);
  ASSERT_TRUE(write.ok()) << write.ToString();

  auto opened = io::FileIoBackend::Open(db->disk_manager(), path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  io::FileIoBackend* backend = opened.value().get();
  EXPECT_STREQ(backend->name(), "file");

  // Two sequential extents then a jump: bytes must match the page store,
  // and the submission-ordered seek rule must count the first read (cold
  // head) and the jump but not the successor read.
  ExpectBackendBytesMatchStore(backend, db->disk_manager(), 0, 4,
                               /*in_place=*/false);
  ExpectBackendBytesMatchStore(backend, db->disk_manager(), 4, 4,
                               /*in_place=*/false);
  ExpectBackendBytesMatchStore(backend, db->disk_manager(), 32, 4,
                               /*in_place=*/false);

  const io::RealIoStats real = backend->real_stats();
  EXPECT_EQ(real.reads, 3u);
  EXPECT_EQ(real.pages_read, 12u);
  EXPECT_EQ(real.bytes_read, 12u * backend->page_size());
  EXPECT_EQ(real.seeks, 2u);
}

TEST(FileIoBackendTest, OpenRejectsShortFile) {
  auto db = MakeDb();
  const std::string path = TempPath("io_backend_short.tbl");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a table image";
  }
  auto opened = io::FileIoBackend::Open(db->disk_manager(), path);
  EXPECT_FALSE(opened.ok());
}

TEST(FileIoBackendTest, VirtualChargeIsBackendIndependent) {
  // The same charge sequence through the sim backend and the file backend
  // must produce identical virtual disk counters: backends differ only in
  // where bytes move (io_backend.h).
  auto db = MakeDb();
  const std::string path = TempPath("io_backend_parity.tbl");
  ASSERT_TRUE(io::FileIoBackend::WriteTableFile(*db->disk_manager(), path).ok());

  const auto run_charges = [&](io::IoBackend* backend) {
    db->env()->disk().Reset();
    EXPECT_TRUE(backend->Charge(0, 4, 0).ok());
    EXPECT_TRUE(backend->Charge(4, 4, 100).ok());
    EXPECT_TRUE(backend->Charge(40, 8, 200).ok());
    return db->env()->disk().stats();
  };

  io::SimIoBackend sim_backend(db->disk_manager());
  const sim::DiskStats sim_stats = run_charges(&sim_backend);

  auto opened = io::FileIoBackend::Open(db->disk_manager(), path);
  ASSERT_TRUE(opened.ok());
  const sim::DiskStats file_stats = run_charges(opened.value().get());

  for (const auto& f : sim::kDiskStatsCounters) {
    EXPECT_EQ(sim_stats.*f.member, file_stats.*f.member) << f.name;
  }
}

TEST(FileIoBackendTest, ChargeFaultParityWithSim) {
  // A disk fault armed on the shared sim::Disk fails the Charge step with
  // the same status through either backend — fault injection lives below
  // the backend seam.
  auto db = MakeDb();
  const std::string path = TempPath("io_backend_fault.tbl");
  ASSERT_TRUE(io::FileIoBackend::WriteTableFile(*db->disk_manager(), path).ok());
  auto opened = io::FileIoBackend::Open(db->disk_manager(), path);
  ASSERT_TRUE(opened.ok());

  sim::DiskFaultOptions faults;
  faults.fail_range_first = 8;
  faults.fail_range_end = 12;
  db->env()->disk().SetFaults(faults);

  io::SimIoBackend sim_backend(db->disk_manager());
  auto sim_charge = sim_backend.Charge(8, 4, 0);
  auto file_charge = opened.value()->Charge(8, 4, 0);
  ASSERT_FALSE(sim_charge.ok());
  ASSERT_FALSE(file_charge.ok());
  EXPECT_EQ(sim_charge.status().code(), file_charge.status().code());
  db->env()->disk().SetFaults(sim::DiskFaultOptions{});
}

}  // namespace
}  // namespace scanshare
