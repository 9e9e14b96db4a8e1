#include "serialize/artifact.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

namespace dpmm {
namespace serialize {

namespace {

constexpr char kMagic[8] = {'D', 'P', 'M', 'M', 'A', 'R', 'T', 'F'};
constexpr std::uint32_t kKindStrategy = 1;
constexpr std::uint32_t kKindRelease = 2;
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;

// The engine tag of the strategy payload. Stable on-disk values —
// independent of the in-memory StrategyEngine enum order.
constexpr std::uint32_t kEngineKron = 1;
constexpr std::uint32_t kEngineDense = 2;

// ---- Primitive little-endian encoding. Explicit byte shifts (not memcpy
// of the in-memory representation) keep the format identical across hosts.

class Writer {
 public:
  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  }
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  }
  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    out.append(s);
  }
  void Vec(const linalg::Vector& v) {
    U64(v.size());
    for (double x : v) F64(x);
  }
  void Sizes(const std::vector<std::size_t>& v) {
    U64(v.size());
    for (std::size_t x : v) U64(x);
  }

  std::string out;
};

// Bounds-checked sequential reads; every getter returns false once the
// input is exhausted, which the decoders surface as a truncation error.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }

  bool U32(std::uint32_t* v) {
    if (remaining() < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(
                static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool U64(std::uint64_t* v) {
    if (remaining() < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool I32(std::int32_t* v) {
    std::uint32_t u = 0;
    if (!U32(&u)) return false;
    *v = static_cast<std::int32_t>(u);
    return true;
  }
  bool F64(double* v) {
    std::uint64_t bits = 0;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool Str(std::string* s) {
    std::uint64_t len = 0;
    if (!U64(&len) || len > remaining()) return false;
    s->assign(data_ + pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }
  bool Vec(linalg::Vector* v) {
    std::uint64_t len = 0;
    if (!U64(&len) || len > remaining() / 8) return false;
    v->resize(static_cast<std::size_t>(len));
    for (auto& x : *v) {
      if (!F64(&x)) return false;
    }
    return true;
  }
  bool Sizes(std::vector<std::size_t>* v) {
    std::uint64_t len = 0;
    if (!U64(&len) || len > remaining() / 8) return false;
    v->resize(static_cast<std::size_t>(len));
    for (auto& x : *v) {
      std::uint64_t u = 0;
      if (!U64(&u)) return false;
      x = static_cast<std::size_t>(u);
    }
    return true;
  }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

Status Truncated(const char* what) {
  return Status::IoError(std::string("truncated artifact: ") + what);
}

std::string Container(std::uint32_t kind, const std::string& payload) {
  Writer w;
  w.out.append(kMagic, sizeof(kMagic));
  w.U32(kArtifactVersion);
  w.U32(kind);
  w.U64(payload.size());
  w.U64(Fnv1a64(payload.data(), payload.size()));
  w.out.append(payload);
  return w.out;
}

/// Validates the container and returns a Reader over the payload. Only the
/// current format version is accepted.
Result<Reader> OpenContainer(const std::string& bytes,
                             std::uint32_t expected_kind) {
  if (bytes.size() < kHeaderSize ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("not a dpmm artifact (bad magic)");
  }
  Reader header(bytes.data() + sizeof(kMagic), bytes.size() - sizeof(kMagic));
  std::uint32_t version = 0, kind = 0;
  std::uint64_t payload_size = 0, checksum = 0;
  header.U32(&version);
  header.U32(&kind);
  header.U64(&payload_size);
  header.U64(&checksum);
  if (version != kArtifactVersion) {
    return Status::IoError("unsupported artifact version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kArtifactVersion) + ")");
  }
  if (kind != expected_kind) {
    return Status::IoError("artifact kind mismatch: got " +
                           std::to_string(kind) + ", expected " +
                           std::to_string(expected_kind));
  }
  if (payload_size != bytes.size() - kHeaderSize) {
    return Status::IoError(
        payload_size > bytes.size() - kHeaderSize
            ? "truncated artifact: payload shorter than header declares"
            : "corrupt artifact: trailing bytes after payload");
  }
  const std::uint64_t actual =
      Fnv1a64(bytes.data() + kHeaderSize, static_cast<std::size_t>(payload_size));
  if (actual != checksum) {
    return Status::IoError("artifact checksum mismatch (corrupted file)");
  }
  return Reader(bytes.data() + kHeaderSize,
                static_cast<std::size_t>(payload_size));
}

/// Product of domain sizes with overflow/zero rejection — the decoder's
/// guard against length-bomb payloads.
Status CheckedCells(const std::vector<std::size_t>& sizes, std::size_t* cells) {
  if (sizes.empty()) return Status::IoError("artifact has an empty domain");
  std::size_t n = 1;
  for (std::size_t s : sizes) {
    if (s == 0) return Status::IoError("artifact domain has a zero-size axis");
    if (n > (std::size_t{1} << 40) / s) {
      return Status::IoError("artifact domain implausibly large");
    }
    n *= s;
  }
  *cells = n;
  return Status::OK();
}

void WriteSolverReport(Writer* w, const optimize::SolverReport& report) {
  w->U32(static_cast<std::uint32_t>(report.method));
  w->I32(report.iterations);
  w->I32(report.fista_iterations);
  w->I32(report.lbfgs_iterations);
  w->I32(report.restarts);
  w->I32(report.stalled_windows);
  w->I32(report.phase_switch_iteration);
  w->F64(report.final_gap);
  w->F64(report.seconds);
}

Status ReadSolverReport(Reader* r, optimize::SolverReport* report) {
  std::uint32_t method = 0;
  if (!r->U32(&method) || !r->I32(&report->iterations) ||
      !r->I32(&report->fista_iterations) ||
      !r->I32(&report->lbfgs_iterations) || !r->I32(&report->restarts) ||
      !r->I32(&report->stalled_windows) ||
      !r->I32(&report->phase_switch_iteration) ||
      !r->F64(&report->final_gap) || !r->F64(&report->seconds)) {
    return Truncated("solver report");
  }
  if (method > static_cast<std::uint32_t>(optimize::SolverMethod::kLbfgs)) {
    return Status::IoError("artifact solver method out of range");
  }
  report->method = static_cast<optimize::SolverMethod>(method);
  return Status::OK();
}

Status ReadWholeFile(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  *bytes = buf.str();
  return Status::OK();
}

Status WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

/// The kron engine block: name, basis factors, kept columns, weights,
/// completion rows.
void WriteKronBlock(Writer* w, const KronStrategy& s) {
  w->Str(s.name());
  const auto& factors = s.basis().factors();
  w->U64(factors.size());
  for (const auto& f : factors) {
    w->U64(f.rows());
    w->U64(f.cols());
    for (std::size_t i = 0; i < f.rows(); ++i) {
      for (std::size_t j = 0; j < f.cols(); ++j) w->F64(f(i, j));
    }
  }
  w->Sizes(s.kept());
  w->Vec(s.weights());
  w->Vec(s.completion());
}

Status ReadKronBlock(Reader* r, std::size_t cells, std::size_t num_attributes,
                     std::shared_ptr<const LinearStrategy>* out) {
  std::string name;
  if (!r->Str(&name)) return Truncated("strategy name");
  std::uint64_t num_factors = 0;
  if (!r->U64(&num_factors)) return Truncated("factor count");
  if (num_factors == 0 || num_factors > num_attributes * 4 + 4) {
    return Status::IoError("artifact factor count implausible");
  }
  std::vector<linalg::Matrix> factors;
  std::size_t basis_dim = 1;
  for (std::uint64_t t = 0; t < num_factors; ++t) {
    std::uint64_t rows = 0, cols = 0;
    if (!r->U64(&rows) || !r->U64(&cols)) return Truncated("factor header");
    // A factor is one attribute's d_i x d_i eigenvector block: square, and
    // never larger than the entries actually present in the payload.
    if (rows == 0 || rows != cols || rows > (std::uint64_t{1} << 20) ||
        rows * cols > r->remaining() / 8) {
      return Status::IoError("artifact factor dimensions corrupt");
    }
    linalg::Matrix f(static_cast<std::size_t>(rows),
                     static_cast<std::size_t>(cols));
    for (std::size_t i = 0; i < f.rows(); ++i) {
      for (std::size_t j = 0; j < f.cols(); ++j) {
        if (!r->F64(&f(i, j))) return Truncated("factor entries");
        if (!std::isfinite(f(i, j))) {
          return Status::IoError("artifact factor entry not finite");
        }
      }
    }
    basis_dim *= f.rows();
    factors.push_back(std::move(f));
  }
  if (basis_dim != cells) {
    return Status::IoError("artifact basis dimension disagrees with domain");
  }

  std::vector<std::size_t> kept;
  linalg::Vector weights, completion;
  if (!r->Sizes(&kept)) return Truncated("kept columns");
  if (!r->Vec(&weights)) return Truncated("weights");
  if (!r->Vec(&completion)) return Truncated("completion rows");
  // The KronStrategy constructor enforces these with aborting CHECKs;
  // re-validate here so corrupt files fail with a recoverable Status.
  if (kept.empty() || kept.size() != weights.size()) {
    return Status::IoError("artifact kept/weight lengths corrupt");
  }
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (kept[i] >= cells || (i > 0 && kept[i] <= kept[i - 1])) {
      return Status::IoError("artifact kept columns not ascending in range");
    }
    if (!std::isfinite(weights[i])) {
      return Status::IoError("artifact weight not finite");
    }
  }
  if (!completion.empty() && completion.size() != cells) {
    return Status::IoError("artifact completion length corrupt");
  }
  for (double c : completion) {
    if (!std::isfinite(c) || c < 0) {
      return Status::IoError("artifact completion entry invalid");
    }
  }

  *out = std::make_shared<KronStrategy>(
      linalg::KronEigenBasis(std::move(factors)), std::move(kept),
      std::move(weights), std::move(completion), std::move(name));
  return Status::OK();
}

/// The dense engine block: name, then the explicit p x n matrix row-major.
void WriteDenseBlock(Writer* w, const Strategy& s) {
  w->Str(s.name());
  const linalg::Matrix& a = s.matrix();
  w->U64(a.rows());
  w->U64(a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) w->F64(a(i, j));
  }
}

Status ReadDenseBlock(Reader* r, std::size_t cells,
                      std::shared_ptr<const LinearStrategy>* out) {
  std::string name;
  if (!r->Str(&name)) return Truncated("strategy name");
  std::uint64_t rows = 0, cols = 0;
  if (!r->U64(&rows) || !r->U64(&cols)) return Truncated("matrix header");
  // Column count is pinned by the domain; the row count only has to be
  // backed by actual payload bytes (a length bomb fails here, before any
  // allocation). Divide instead of multiplying: rows * cols can wrap in
  // u64, which would slip a crafted huge row count past the bound and into
  // an undersized allocation.
  if (rows == 0 || cols != cells || rows > (r->remaining() / 8) / cols) {
    return Status::IoError("artifact matrix dimensions corrupt");
  }
  linalg::Matrix a(static_cast<std::size_t>(rows),
                   static_cast<std::size_t>(cols));
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!r->F64(&a(i, j))) return Truncated("matrix entries");
      if (!std::isfinite(a(i, j))) {
        return Status::IoError("artifact matrix entry not finite");
      }
    }
  }
  *out = std::make_shared<Strategy>(std::move(a), std::move(name));
  return Status::OK();
}

}  // namespace

std::uint64_t Fnv1a64(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t Fnv1a64(const std::string& s) {
  return Fnv1a64(s.data(), s.size());
}

std::string EncodeStrategyArtifact(const StrategyArtifact& artifact) {
  DPMM_CHECK_MSG(artifact.strategy != nullptr,
                 "cannot encode a strategy artifact without a strategy");
  Writer w;
  w.Str(artifact.signature);
  w.Sizes(artifact.domain_sizes);
  if (const auto* kron =
          dynamic_cast<const KronStrategy*>(artifact.strategy.get())) {
    w.U32(kEngineKron);
    WriteKronBlock(&w, *kron);
  } else if (const auto* dense =
                 dynamic_cast<const Strategy*>(artifact.strategy.get())) {
    w.U32(kEngineDense);
    WriteDenseBlock(&w, *dense);
  } else {
    DPMM_CHECK_MSG(false, "unknown strategy engine in artifact");
  }
  WriteSolverReport(&w, artifact.solver_report);
  w.F64(artifact.duality_gap);
  w.U64(artifact.rank);
  return Container(kKindStrategy, w.out);
}

Result<StrategyArtifact> DecodeStrategyArtifact(const std::string& bytes) {
  auto opened = OpenContainer(bytes, kKindStrategy);
  if (!opened.ok()) return opened.status();
  Reader r = std::move(opened).ValueOrDie();

  StrategyArtifact out;
  if (!r.Str(&out.signature)) return Truncated("signature");
  if (!r.Sizes(&out.domain_sizes)) return Truncated("domain sizes");
  std::size_t cells = 0;
  Status st = CheckedCells(out.domain_sizes, &cells);
  if (!st.ok()) return st;

  std::uint32_t engine = 0;
  if (!r.U32(&engine)) return Truncated("engine tag");
  if (engine == kEngineKron) {
    st = ReadKronBlock(&r, cells, out.domain_sizes.size(), &out.strategy);
  } else if (engine == kEngineDense) {
    st = ReadDenseBlock(&r, cells, &out.strategy);
  } else {
    st = Status::IoError("artifact strategy engine out of range");
  }
  if (!st.ok()) return st;

  st = ReadSolverReport(&r, &out.solver_report);
  if (!st.ok()) return st;
  std::uint64_t rank = 0;
  if (!r.F64(&out.duality_gap) || !r.U64(&rank)) {
    return Truncated("design certificate");
  }
  out.rank = static_cast<std::size_t>(rank);
  if (r.remaining() != 0) {
    return Status::IoError("corrupt artifact: unread payload bytes");
  }
  return out;
}

std::string EncodeReleaseArtifact(const ReleaseArtifact& artifact) {
  Writer w;
  w.Str(artifact.signature);
  w.Sizes(artifact.domain_sizes);
  w.F64(artifact.budget.epsilon);
  w.F64(artifact.budget.delta);
  w.Str(artifact.dataset);
  w.U64(artifact.seed);
  w.U64(artifact.batch_index);
  w.U64(artifact.supersedes_plus1);
  w.Vec(artifact.x_hat);
  return Container(kKindRelease, w.out);
}

Result<ReleaseArtifact> DecodeReleaseArtifact(const std::string& bytes) {
  auto opened = OpenContainer(bytes, kKindRelease);
  if (!opened.ok()) return opened.status();
  Reader r = std::move(opened).ValueOrDie();

  ReleaseArtifact out;
  if (!r.Str(&out.signature)) return Truncated("signature");
  if (!r.Sizes(&out.domain_sizes)) return Truncated("domain sizes");
  std::size_t cells = 0;
  Status st = CheckedCells(out.domain_sizes, &cells);
  if (!st.ok()) return st;
  if (!r.F64(&out.budget.epsilon) || !r.F64(&out.budget.delta)) {
    return Truncated("budget");
  }
  // A stored release is a Gaussian-mechanism output: 0 < delta < 1 (the
  // comparisons are false for NaN).
  if (!std::isfinite(out.budget.epsilon) || out.budget.epsilon <= 0 ||
      !(out.budget.delta > 0 && out.budget.delta < 1)) {
    return Status::IoError("artifact budget invalid");
  }
  if (!r.Str(&out.dataset)) return Truncated("dataset label");
  if (!r.U64(&out.seed) || !r.U64(&out.batch_index)) {
    return Truncated("provenance");
  }
  if (!r.U64(&out.supersedes_plus1)) {
    return Truncated("supersession");
  }
  if (!r.Vec(&out.x_hat)) return Truncated("estimate");
  if (out.x_hat.size() != cells) {
    return Status::IoError("artifact estimate length disagrees with domain");
  }
  if (r.remaining() != 0) {
    return Status::IoError("corrupt artifact: unread payload bytes");
  }
  return out;
}

Status SaveStrategyArtifact(const StrategyArtifact& artifact,
                            const std::string& path) {
  // A null strategy is representable since the shared_ptr migration; turn
  // it into a recoverable error on the Status-returning path (Encode keeps
  // its CHECK as the backstop for direct callers).
  if (artifact.strategy == nullptr) {
    return Status::InvalidArgument(
        "strategy artifact has no strategy to save");
  }
  return WriteWholeFile(path, EncodeStrategyArtifact(artifact));
}

Result<StrategyArtifact> LoadStrategyArtifact(const std::string& path) {
  std::string bytes;
  Status st = ReadWholeFile(path, &bytes);
  if (!st.ok()) return st;
  auto decoded = DecodeStrategyArtifact(bytes);
  if (!decoded.ok()) {
    return Status::IoError(path + ": " + decoded.status().message());
  }
  return decoded;
}

}  // namespace serialize
}  // namespace dpmm
