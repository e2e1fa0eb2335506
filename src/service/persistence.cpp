#include "service/persistence.hpp"

#include <cstdint>
#include <vector>

#include "persist/record_file.hpp"
#include "util/bytes.hpp"

namespace medcc::service {

namespace {

void put_f64_vector(util::ByteWriter& w, const std::vector<double>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const double x : v) w.f64(x);
}

void put_index_vector(util::ByteWriter& w,
                      const std::vector<std::size_t>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const std::size_t x : v) w.u64(x);
}

std::vector<double> get_f64_vector(persist::RecordReader& r) {
  const std::uint32_t count = r.u32();
  r.expect_fits(count, sizeof(double));
  std::vector<double> v;
  v.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) v.push_back(r.f64());
  return v;
}

std::vector<std::size_t> get_index_vector(persist::RecordReader& r,
                                          std::size_t max_count) {
  const std::uint32_t count = r.u32();
  if (count > max_count)
    throw persist::PersistError("cache record: index vector too long");
  r.expect_fits(count, sizeof(std::uint64_t));
  std::vector<std::size_t> v;
  v.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i)
    v.push_back(static_cast<std::size_t>(r.u64()));
  return v;
}

}  // namespace

std::string encode_cache_record(const CacheEntry& entry) {
  util::ByteWriter w(kMaxPersistedString);
  w.u16(kCacheRecordVersion);
  w.u64(entry.key.hi);
  w.u64(entry.key.lo);
  w.u64(entry.exact);
  w.str(entry.solver);
  w.u8(entry.remappable ? 1 : 0);
  w.u64(entry.hits);

  const sched::Result& result = entry.result;
  w.u64(result.iterations);
  w.f64(result.eval.med);
  w.f64(result.eval.cost);
  put_index_vector(w, result.schedule.type_of);

  const dag::CpmResult& cpm = result.eval.cpm;
  put_f64_vector(w, cpm.est);
  put_f64_vector(w, cpm.eft);
  put_f64_vector(w, cpm.lst);
  put_f64_vector(w, cpm.lft);
  put_f64_vector(w, cpm.buffer);
  w.u32(static_cast<std::uint32_t>(cpm.critical.size()));
  for (const bool c : cpm.critical) w.u8(c ? 1 : 0);
  put_index_vector(w, cpm.critical_path);
  w.f64(cpm.makespan);

  w.u32(static_cast<std::uint32_t>(entry.assignment.size()));
  for (const auto& [label, type] : entry.assignment) {
    w.u64(label);
    w.u64(type);
  }
  return w.take();
}

CacheEntry decode_cache_record(std::string_view payload) {
  persist::RecordReader r(payload);
  const std::uint16_t version = r.u16();
  if (version != kCacheRecordVersion)
    throw persist::PersistError("cache record: unsupported payload version " +
                                std::to_string(version));

  CacheEntry entry;
  entry.key.hi = r.u64();
  entry.key.lo = r.u64();
  entry.exact = r.u64();
  entry.solver = r.str(kMaxPersistedString);
  entry.remappable = r.u8() != 0;
  entry.hits = r.u64();

  sched::Result& result = entry.result;
  result.iterations = static_cast<std::size_t>(r.u64());
  result.eval.med = r.f64();
  result.eval.cost = r.f64();
  result.schedule.type_of = get_index_vector(r, kMaxPersistedModules);

  dag::CpmResult& cpm = result.eval.cpm;
  cpm.est = get_f64_vector(r);
  cpm.eft = get_f64_vector(r);
  cpm.lst = get_f64_vector(r);
  cpm.lft = get_f64_vector(r);
  cpm.buffer = get_f64_vector(r);
  const std::uint32_t critical_count = r.u32();
  r.expect_fits(critical_count, 1);
  cpm.critical.reserve(critical_count);
  for (std::uint32_t i = 0; i < critical_count; ++i)
    cpm.critical.push_back(r.u8() != 0);
  cpm.critical_path = get_index_vector(r, kMaxPersistedModules);
  cpm.makespan = r.f64();

  const std::uint32_t assignment_count = r.u32();
  if (assignment_count > kMaxPersistedModules)
    throw persist::PersistError("cache record: assignment too long");
  r.expect_fits(assignment_count, 2 * sizeof(std::uint64_t));
  entry.assignment.reserve(assignment_count);
  for (std::uint32_t i = 0; i < assignment_count; ++i) {
    const std::uint64_t label = r.u64();
    const std::uint64_t type = r.u64();
    entry.assignment.emplace_back(label, type);
  }
  r.expect_done();
  return entry;
}

}  // namespace medcc::service
