#include "replay/checkpoint.hpp"

#include <bit>

#include "io/serialize.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"
#include "util/stats.hpp"

namespace goc::replay {
namespace {

/// Header payload: kind tag + identity fields. The kind string keeps
/// checkpoints and golden recordings (golden.cpp) distinguishable even
/// though they share the frame format.
constexpr const char* kCheckpointKind = "trajectory-checkpoint";

}  // namespace

std::vector<WelfordState> BatchCheckpoint::welford() const {
  const std::size_t metrics = metric_names.size();
  std::vector<WelfordState> state(metrics);
  for (std::size_t m = 0; m < metrics; ++m) {
    RunningStats fold;
    for (std::size_t r = 0; r < completed; ++r) {
      fold.add(values[r * metrics + m]);
    }
    state[m] = {fold.mean(), fold.m2()};
  }
  return state;
}

std::uint64_t BatchCheckpoint::values_hash() const noexcept {
  std::uint64_t h = fnv::kOffset;
  for (const double v : values) fnv::mix_bytes(h, v);
  return h;
}

std::string BatchCheckpoint::to_bytes() const {
  GOC_CHECK_ARG(!metric_names.empty(), "checkpoint needs metric names");
  GOC_CHECK_ARG(values.size() == completed * metric_names.size(),
                "checkpoint value matrix arity mismatch");
  Writer writer;

  ByteWriter header;
  header.str(kCheckpointKind);
  header.u64(root_seed);
  header.u64(config_hash);
  header.u8(adaptive ? 1 : 0);
  header.u64(replicas_requested);
  header.u32(static_cast<std::uint32_t>(metric_names.size()));
  for (const std::string& name : metric_names) header.str(name);
  writer.append(RecordType::kBatchHeader, header);

  const std::size_t metrics = metric_names.size();
  for (std::size_t r = 0; r < completed; ++r) {
    ByteWriter row;
    row.u64(r);
    for (std::size_t m = 0; m < metrics; ++m) row.f64(values[r * metrics + m]);
    writer.append(RecordType::kReplicaRow, row);
  }

  ByteWriter prefix;
  prefix.u64(completed);
  for (const WelfordState& s : welford()) {
    prefix.f64(s.mean);
    prefix.f64(s.m2);
  }
  writer.append(RecordType::kWelford, prefix);

  ByteWriter footer;
  footer.u64(completed);
  footer.u64(values_hash());
  writer.append(RecordType::kFooter, footer);

  return writer.bytes();
}

void BatchCheckpoint::save(const std::string& path) const {
  try {
    io::atomic_write_file(to_bytes(), path);
  } catch (const std::runtime_error& e) {
    throw ReplayException(ReplayError::kIo, e.what());
  }
}

BatchCheckpoint BatchCheckpoint::from_bytes(std::string_view bytes,
                                            bool salvage) {
  const Reader reader = Reader::from_bytes(bytes, salvage);
  const std::vector<Frame>& frames = reader.frames();
  if (frames.empty() || frames.front().type != RecordType::kBatchHeader) {
    // Even salvage cannot proceed: rows without a header cannot be bound
    // to any scenario.
    throw ReplayException(ReplayError::kMalformed,
                          "checkpoint has no leading batch-header frame");
  }

  BatchCheckpoint cp;
  {
    ByteReader header(frames.front().payload);
    const std::string kind = header.str();
    if (kind != kCheckpointKind) {
      throw ReplayException(ReplayError::kHeaderMismatch,
                            "artifact is a '" + kind +
                                "', not a trajectory checkpoint");
    }
    cp.root_seed = header.u64();
    cp.config_hash = header.u64();
    cp.adaptive = header.u8() != 0;
    cp.replicas_requested = header.u64();
    const std::uint32_t metrics = header.u32();
    if (metrics == 0 || metrics > 4096) {
      throw ReplayException(ReplayError::kMalformed,
                            "implausible metric count in header");
    }
    cp.metric_names.reserve(metrics);
    for (std::uint32_t m = 0; m < metrics; ++m) {
      cp.metric_names.push_back(header.str());
    }
  }

  const std::size_t metrics = cp.metric_names.size();
  bool saw_welford = false;
  bool saw_footer = false;
  std::vector<WelfordState> stored_welford;
  std::uint64_t stored_welford_count = 0;
  std::uint64_t footer_completed = 0;
  std::uint64_t footer_hash = 0;
  const auto reject = [&](const char* what) {
    // A frame that parsed (CRC-clean) but contradicts the stream. In
    // salvage mode the row prefix gathered so far is still good — drop
    // only the offending frame and everything after it.
    if (!salvage) throw ReplayException(ReplayError::kMalformed, what);
    return false;  // signals "stop scanning frames"
  };
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const Frame& frame = frames[i];
    try {
      if (frame.type == RecordType::kReplicaRow) {
        ByteReader row(frame.payload);
        const std::uint64_t r = row.u64();
        if (r != cp.completed) {
          if (!reject("replica-row frame out of sequence")) break;
        }
        if (row.remaining() != metrics * 8) {
          if (!reject("replica-row arity mismatch")) break;
        }
        for (std::size_t m = 0; m < metrics; ++m) {
          cp.values.push_back(row.f64());
        }
        ++cp.completed;
      } else if (frame.type == RecordType::kWelford) {
        ByteReader prefix(frame.payload);
        stored_welford_count = prefix.u64();
        if (prefix.remaining() != metrics * 16) {
          if (!reject("welford arity mismatch")) break;
        }
        stored_welford.resize(metrics);
        for (std::size_t m = 0; m < metrics; ++m) {
          stored_welford[m].mean = prefix.f64();
          stored_welford[m].m2 = prefix.f64();
        }
        saw_welford = true;
      } else if (frame.type == RecordType::kFooter) {
        ByteReader footer(frame.payload);
        footer_completed = footer.u64();
        footer_hash = footer.u64();
        saw_footer = true;
      } else {
        if (!reject("unexpected frame type in checkpoint")) break;
      }
    } catch (const ReplayException&) {
      // A CRC-clean frame whose payload still fails to parse (possible
      // only via a checksum collision) ends the salvageable prefix.
      if (!salvage) throw;
      break;
    }
  }

  // Cross-checks. In strict mode a stale Welford/footer is corruption; in
  // salvage mode the rows are the ground truth and the summaries are
  // advisory (a salvaged prefix legitimately predates them).
  if (!salvage) {
    if (!saw_welford || !saw_footer) {
      throw ReplayException(ReplayError::kTruncated,
                            "checkpoint missing welford/footer frames");
    }
    if (stored_welford_count != cp.completed ||
        footer_completed != cp.completed || footer_hash != cp.values_hash()) {
      throw ReplayException(ReplayError::kMalformed,
                            "checkpoint summary frames disagree with rows");
    }
    const std::vector<WelfordState> recomputed = cp.welford();
    for (std::size_t m = 0; m < metrics; ++m) {
      if (std::bit_cast<std::uint64_t>(recomputed[m].mean) !=
              std::bit_cast<std::uint64_t>(stored_welford[m].mean) ||
          std::bit_cast<std::uint64_t>(recomputed[m].m2) !=
              std::bit_cast<std::uint64_t>(stored_welford[m].m2)) {
        throw ReplayException(ReplayError::kMalformed,
                              "stored welford state disagrees with rows");
      }
    }
  }
  return cp;
}

BatchCheckpoint BatchCheckpoint::load(const std::string& path, bool salvage) {
  return from_bytes(read_file_bytes(path), salvage);
}

}  // namespace goc::replay
