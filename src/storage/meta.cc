#include "storage/meta.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "storage/crc32.h"
#include "storage/posix_io.h"
#include "storage/serde.h"

namespace factlog::storage {

namespace {

constexpr uint32_t kMetaMagic = 0x464C4D54;  // "FLMT"
// Version 2 appends the runtime statistics catalog after the free list;
// version 1 files (no catalog) still read fine.
constexpr uint32_t kMetaVersion = 2;

void WriteValues(const std::vector<ValueDumpEntry>& values, BinWriter* w) {
  w->U64(values.size());
  for (const ValueDumpEntry& v : values) {
    w->U8(v.kind);
    switch (v.kind) {
      case 0:
        w->I64(v.int_value);
        break;
      case 1:
        w->Str(v.symbol);
        break;
      default:
        w->Str(v.symbol);
        w->U32(static_cast<uint32_t>(v.children.size()));
        for (int32_t c : v.children) w->I32(c);
        break;
    }
  }
}

bool ReadValues(BinReader* r, std::vector<ValueDumpEntry>* values) {
  uint64_t n = r->U64();
  if (!r->ok()) return false;
  values->reserve(n);
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    ValueDumpEntry v;
    v.kind = r->U8();
    switch (v.kind) {
      case 0:
        v.int_value = r->I64();
        break;
      case 1:
        v.symbol = r->Str();
        break;
      case 2: {
        v.symbol = r->Str();
        uint32_t nc = r->U32();
        if (!r->ok()) return false;
        v.children.reserve(nc);
        for (uint32_t c = 0; c < nc; ++c) v.children.push_back(r->I32());
        break;
      }
      default:
        return false;
    }
    values->push_back(std::move(v));
  }
  return r->ok();
}

void WriteRelations(const std::vector<RelationDump>& rels, BinWriter* w) {
  w->U32(static_cast<uint32_t>(rels.size()));
  for (const RelationDump& rel : rels) {
    w->Str(rel.name);
    w->U32(rel.arity);
    w->U32(rel.num_shards);
    w->U32(static_cast<uint32_t>(rel.part_cols.size()));
    for (int32_t c : rel.part_cols) w->I32(c);
    w->U32(static_cast<uint32_t>(rel.shards.size()));
    for (const ShardDump& sh : rel.shards) {
      w->U64(sh.num_rows);
      w->U32(static_cast<uint32_t>(sh.chain.size()));
      for (PageId p : sh.chain) w->U32(p);
      w->U64(sh.inline_rows.size());
      for (int32_t x : sh.inline_rows) w->I32(x);
    }
  }
}

bool ReadRelations(BinReader* r, std::vector<RelationDump>* rels) {
  uint32_t n = r->U32();
  if (!r->ok()) return false;
  rels->reserve(n);
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    RelationDump rel;
    rel.name = r->Str();
    rel.arity = r->U32();
    rel.num_shards = r->U32();
    uint32_t pc = r->U32();
    if (!r->ok()) return false;
    for (uint32_t c = 0; c < pc; ++c) rel.part_cols.push_back(r->I32());
    uint32_t ns = r->U32();
    if (!r->ok()) return false;
    rel.shards.reserve(ns);
    for (uint32_t s = 0; s < ns && r->ok(); ++s) {
      ShardDump sh;
      sh.num_rows = r->U64();
      uint32_t np = r->U32();
      if (!r->ok()) return false;
      sh.chain.reserve(np);
      for (uint32_t p = 0; p < np; ++p) sh.chain.push_back(r->U32());
      uint64_t ni = r->U64();
      if (!r->ok()) return false;
      sh.inline_rows.reserve(ni);
      for (uint64_t x = 0; x < ni && r->ok(); ++x) {
        sh.inline_rows.push_back(r->I32());
      }
      rel.shards.push_back(std::move(sh));
    }
    rels->push_back(std::move(rel));
  }
  return r->ok();
}

void WriteViews(const std::vector<ViewDumpRec>& views, BinWriter* w) {
  w->U32(static_cast<uint32_t>(views.size()));
  for (const ViewDumpRec& v : views) {
    w->Str(v.key);
    w->Str(v.program_text);
    w->Str(v.query_text);
    w->Str(v.strategy);
    w->U32(static_cast<uint32_t>(v.preds.size()));
    for (const ViewPredDump& p : v.preds) {
      w->Str(p.pred);
      w->U32(p.arity);
      w->U8(p.counts_enabled);
      w->U64(p.num_rows);
      w->U64(p.rows.size());
      for (int32_t x : p.rows) w->I32(x);
      w->U64(p.row_counts.size());
      for (int64_t c : p.row_counts) w->I64(c);
    }
  }
}

bool ReadViews(BinReader* r, std::vector<ViewDumpRec>* views) {
  uint32_t n = r->U32();
  if (!r->ok()) return false;
  views->reserve(n);
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    ViewDumpRec v;
    v.key = r->Str();
    v.program_text = r->Str();
    v.query_text = r->Str();
    v.strategy = r->Str();
    uint32_t np = r->U32();
    if (!r->ok()) return false;
    v.preds.reserve(np);
    for (uint32_t p = 0; p < np && r->ok(); ++p) {
      ViewPredDump pd;
      pd.pred = r->Str();
      pd.arity = r->U32();
      pd.counts_enabled = r->U8();
      pd.num_rows = r->U64();
      uint64_t nr = r->U64();
      if (!r->ok()) return false;
      pd.rows.reserve(nr);
      for (uint64_t x = 0; x < nr && r->ok(); ++x) pd.rows.push_back(r->I32());
      uint64_t nc = r->U64();
      if (!r->ok()) return false;
      pd.row_counts.reserve(nc);
      for (uint64_t c = 0; c < nc && r->ok(); ++c) {
        pd.row_counts.push_back(r->I64());
      }
      v.preds.push_back(std::move(pd));
    }
    views->push_back(std::move(v));
  }
  return r->ok();
}

void WritePlans(const std::vector<PlanDescriptor>& plans, BinWriter* w) {
  w->U32(static_cast<uint32_t>(plans.size()));
  for (const PlanDescriptor& p : plans) {
    w->Str(p.cache_key);
    w->Str(p.strategy);
    w->Str(p.program_text);
    w->Str(p.query_text);
    w->U32(static_cast<uint32_t>(p.extent_hints.size()));
    for (const auto& [pred, rows] : p.extent_hints) {
      w->Str(pred);
      w->U64(rows);
    }
  }
}

bool ReadPlans(BinReader* r, std::vector<PlanDescriptor>* plans) {
  uint32_t n = r->U32();
  if (!r->ok()) return false;
  plans->reserve(n);
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    PlanDescriptor p;
    p.cache_key = r->Str();
    p.strategy = r->Str();
    p.program_text = r->Str();
    p.query_text = r->Str();
    uint32_t nh = r->U32();
    if (!r->ok()) return false;
    for (uint32_t h = 0; h < nh && r->ok(); ++h) {
      std::string pred = r->Str();
      uint64_t rows = r->U64();
      p.extent_hints[pred] = rows;
    }
    plans->push_back(std::move(p));
  }
  return r->ok();
}

void WriteStats(const std::vector<PredicateStatsDump>& stats, BinWriter* w) {
  w->U32(static_cast<uint32_t>(stats.size()));
  for (const PredicateStatsDump& s : stats) {
    w->Str(s.pred);
    w->F64(s.extent);
    w->U64(s.extent_runs);
    w->F64(s.delta_mean);
    w->U64(s.delta_runs);
    w->U32(static_cast<uint32_t>(s.probes.size()));
    for (const ProbeStatDump& p : s.probes) {
      w->Str(p.pattern);
      w->F64(p.probes);
      w->F64(p.matched);
      w->U64(p.runs);
    }
  }
}

bool ReadStats(BinReader* r, std::vector<PredicateStatsDump>* stats) {
  uint32_t n = r->U32();
  if (!r->ok()) return false;
  stats->reserve(n);
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    PredicateStatsDump s;
    s.pred = r->Str();
    s.extent = r->F64();
    s.extent_runs = r->U64();
    s.delta_mean = r->F64();
    s.delta_runs = r->U64();
    uint32_t np = r->U32();
    if (!r->ok()) return false;
    s.probes.reserve(np);
    for (uint32_t p = 0; p < np && r->ok(); ++p) {
      ProbeStatDump ps;
      ps.pattern = r->Str();
      ps.probes = r->F64();
      ps.matched = r->F64();
      ps.runs = r->U64();
      s.probes.push_back(std::move(ps));
    }
    stats->push_back(std::move(s));
  }
  return r->ok();
}

}  // namespace

Status WriteCheckpointMeta(const std::string& path,
                           const CheckpointMeta& meta) {
  BinWriter payload;
  payload.U64(meta.epoch);
  WriteValues(meta.values, &payload);
  WriteRelations(meta.relations, &payload);
  WriteViews(meta.views, &payload);
  WritePlans(meta.plans, &payload);
  payload.U32(meta.num_pages);
  payload.U32(static_cast<uint32_t>(meta.free_list.size()));
  for (PageId p : meta.free_list) payload.U32(p);
  WriteStats(meta.stats, &payload);

  BinWriter file;
  file.U32(kMetaMagic);
  file.U32(kMetaVersion);
  file.U64(payload.size());
  file.Bytes(payload.str().data(), payload.size());
  file.U32(Crc32(payload.str().data(), payload.size()));

  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open '" + tmp + "'");
  if (Status st = WriteAll(fd, file.str().data(), file.size(), "write meta");
      !st.ok()) {
    ::close(fd);
    return st;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Errno("fsync meta");
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("rename meta into place");
  }
  // Durably record the rename itself (the directory entry).
  int dfd = ::open(path.substr(0, path.find_last_of('/')).c_str(),
                   O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Result<CheckpointMeta> ReadCheckpointMeta(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no checkpoint meta at '" + path + "'");
    }
    return Errno("open '" + path + "'");
  }
  std::string data;
  Status read = ReadAll(fd, &data, "read meta");
  ::close(fd);
  FACTLOG_RETURN_IF_ERROR(read);

  BinReader header(data.data(), data.size());
  if (header.U32() != kMetaMagic) {
    return Status::Internal("meta file '" + path + "': bad magic");
  }
  const uint32_t version = header.U32();
  if (version < 1 || version > kMetaVersion) {
    return Status::Internal("meta file '" + path + "': unsupported version");
  }
  uint64_t payload_len = header.U64();
  if (!header.ok() || data.size() < header.pos() + payload_len + 4) {
    return Status::Internal("meta file '" + path + "': truncated");
  }
  const char* payload = data.data() + header.pos();
  uint32_t stored_crc;
  std::memcpy(&stored_crc, payload + payload_len, 4);
  if (Crc32(payload, payload_len) != stored_crc) {
    return Status::Internal("meta file '" + path + "': checksum mismatch");
  }

  CheckpointMeta meta;
  BinReader r(payload, payload_len);
  meta.epoch = r.U64();
  if (!ReadValues(&r, &meta.values) || !ReadRelations(&r, &meta.relations) ||
      !ReadViews(&r, &meta.views) || !ReadPlans(&r, &meta.plans)) {
    return Status::Internal("meta file '" + path + "': malformed payload");
  }
  meta.num_pages = r.U32();
  uint32_t nf = r.U32();
  if (!r.ok()) {
    return Status::Internal("meta file '" + path + "': malformed payload");
  }
  meta.free_list.reserve(nf);
  for (uint32_t i = 0; i < nf; ++i) meta.free_list.push_back(r.U32());
  if (version >= 2 && !ReadStats(&r, &meta.stats)) {
    return Status::Internal("meta file '" + path + "': malformed payload");
  }
  if (!r.ok() || !r.AtEnd()) {
    return Status::Internal("meta file '" + path + "': malformed payload");
  }
  return meta;
}

}  // namespace factlog::storage
