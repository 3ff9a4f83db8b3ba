#include "exec/chunk_processor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "buffer/page_guard.h"

namespace scanshare::exec {

StatusOr<ChunkProcessor> ChunkProcessor::Create(
    buffer::BufferPool* pool, const storage::TableInfo* table,
    const CostModel* cost, const QuerySpec& query, Aggregator* aggregator,
    ScanMetrics* metrics) {
  SCANSHARE_ASSIGN_OR_RETURN(CompiledPredicate predicate,
                             query.predicate.Compile(table->schema));
  SCANSHARE_RETURN_IF_ERROR(aggregator->PrepareHot(table->schema));
  ChunkProcessor chunks(pool, table, cost, std::move(predicate), aggregator,
                        metrics);
  chunks.per_tuple_ns_ =
      cost->tuple_base_ns +
      static_cast<double>(query.predicate.size()) * cost->predicate_atom_ns +
      query.per_tuple_extra_ns;
  chunks.per_match_ns_ = static_cast<double>(query.aggs.size()) * cost->agg_ns;
  return chunks;
}

ChunkProcessor::~ChunkProcessor() {
  if (kernel_ != nullptr) kernel_->Cancel();
}

void ChunkProcessor::StartWalk(ScanWalk walk, ThreadPool* workers) {
  if (kernel_ != nullptr) kernel_->Cancel();
  const bool empty = walk.pages() == 0;
  kernel_ = std::make_shared<ScanKernel>(predicate_, aggregator_, store_,
                                         std::move(walk),
                                         pool_->prefetch_extent_pages());
  if (!empty) SubmitRunAhead(workers, kernel_);
}

StatusOr<sim::Micros> ChunkProcessor::ProcessRange(sim::PageId first,
                                                   sim::PageId end,
                                                   sim::Micros now,
                                                   buffer::PagePriority priority) {
  if (kernel_ == nullptr) {
    return Status::FailedPrecondition("scan: no walk started");
  }
  double cpu_us = 0.0;
  double ovh_us = 0.0;
  sim::Micros io_us = 0;

  // Chunk-local counters, folded into the bound ScanMetrics once at the
  // end: the inner loop touches registers, not the shared struct.
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t tuples = 0;
  uint64_t matches = 0;

  for (sim::PageId p = first; p < end; ++p) {
    const sim::Micros issue = now + io_us;
    SCANSHARE_ASSIGN_OR_RETURN(
        buffer::FetchResult fetched,
        pool_->FetchPage(p, issue, table_->first_page, table_->end_page()));
    ovh_us += cost_->buffer_call_us;
    if (fetched.hit) {
      ++hits;
    } else {
      ++misses;
      io_us += fetched.io.complete_micros - issue;
    }
    buffer::PageGuard guard(pool_, p, fetched.data);
    guard.set_release_priority(priority);

    // A frame that is not the store's image is a copy of moved bytes
    // (push-file): the kernel read the image, so the copy must equal it.
    if (!store_->IsPageImage(p, fetched.data) &&
        std::memcmp(fetched.data, store_->PageImage(p), pool_->page_size()) !=
            0) {
      return Status::Corruption("scan: page " + std::to_string(p) +
                                " differs from its page-store image");
    }
    SCANSHARE_ASSIGN_OR_RETURN(const PageResult page, kernel_->Take(p));
    const uint16_t count = page.rows;
    const uint16_t matched = page.matched;
    tuples += count;
    matches += matched;
    cpu_us += cost_->page_cpu_us +
              (static_cast<double>(count) * per_tuple_ns_ +
               static_cast<double>(matched) * per_match_ns_) /
                  1000.0;
  }

  metrics_->buffer_hits += hits;
  metrics_->buffer_misses += misses;
  metrics_->tuples_scanned += tuples;
  metrics_->tuples_matched += matches;
  metrics_->pages_scanned += end > first ? end - first : 0;

  const sim::Micros cpu = static_cast<sim::Micros>(std::llround(cpu_us));
  const sim::Micros ovh = static_cast<sim::Micros>(std::llround(ovh_us));
  metrics_->cpu += cpu;
  metrics_->overhead += ovh;
  const sim::Micros body = std::max<sim::Micros>(cpu, io_us);
  metrics_->io_stall += body > cpu ? body - cpu : 0;  // Unoverlapped stall.
  return body + ovh;
}

}  // namespace scanshare::exec
