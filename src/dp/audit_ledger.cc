#include "dp/audit_ledger.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/metrics.h"

namespace stpt::dp {
namespace {

/// Shortest round-trippable decimal form, so the JSONL ledger preserves the
/// exact doubles the accountant saw.
std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Prefer a shorter representation when it round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == value) return shorter;
  }
  return buf;
}

std::string RecordJson(const AuditRecord& r) {
  std::ostringstream os;
  os << "{\"seq\": " << r.seq << ", \"stage\": \"" << obs::JsonEscape(r.stage)
     << "\", \"mechanism\": \"" << obs::JsonEscape(r.mechanism)
     << "\", \"epsilon\": " << FormatDouble(r.epsilon)
     << ", \"sensitivity\": " << FormatDouble(r.sensitivity)
     << ", \"composition\": \"" << obs::JsonEscape(r.composition)
     << "\", \"consumed_after\": " << FormatDouble(r.consumed_after) << "}";
  return os.str();
}

}  // namespace

AuditLedger::~AuditLedger() {
  if (file_ != nullptr) std::fclose(file_);
}

Status AuditLedger::OpenFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::InvalidArgument("AuditLedger: cannot open '" + path + "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = file;
  // Records appended before the sink opened still belong in the file.
  for (const AuditRecord& record : records_) WriteRecordLocked(record);
  return Status::OK();
}

void AuditLedger::Append(AuditRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.seq = static_cast<uint64_t>(records_.size());
  records_.push_back(std::move(record));
  if (file_ != nullptr) WriteRecordLocked(records_.back());
}

void AuditLedger::WriteRecordLocked(const AuditRecord& record) {
  const std::string line = RecordJson(record) + "\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

std::vector<AuditRecord> AuditLedger::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

size_t AuditLedger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

double AuditLedger::TotalEpsilonRaw() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const AuditRecord& r : records_) total += r.epsilon;
  return total;
}

double AuditLedger::ComposedEpsilon() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ComposeRecords(records_);
}

double AuditLedger::ComposeRecords(const std::vector<AuditRecord>& records) {
  // Mirror BudgetAccountant exactly: a vector of (stage, running max) in
  // first-charge order, then one left-to-right sum. Using the identical
  // operations in the identical order makes the result bitwise equal to
  // ConsumedEpsilon(), so the audit test can assert exact equality.
  std::vector<std::pair<std::string, double>> groups;
  for (const AuditRecord& r : records) {
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == r.stage; });
    if (it == groups.end()) {
      groups.emplace_back(r.stage, r.epsilon);
    } else {
      it->second = std::max(it->second, r.epsilon);
    }
  }
  double total = 0.0;
  for (const auto& g : groups) total += g.second;
  return total;
}

namespace {

/// Pulls the value following `"key": ` out of one RecordJson line. The
/// emitter writes a fixed field order and fixed spacing, so a positional
/// scan is exact — no general JSON parser needed to round-trip our own
/// output.
bool FindValue(const std::string& line, const char* key, size_t* pos) {
  const std::string needle = std::string("\"") + key + "\": ";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  *pos = at + needle.size();
  return true;
}

bool ParseJsonString(const std::string& line, size_t pos, std::string* out) {
  if (pos >= line.size() || line[pos] != '"') return false;
  out->clear();
  for (size_t i = pos + 1; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= line.size()) return false;
    const char esc = line[i];
    if (esc == '"' || esc == '\\') {
      out->push_back(esc);
    } else if (esc == 'u') {
      if (i + 4 >= line.size()) return false;
      unsigned code = 0;
      if (std::sscanf(line.c_str() + i + 1, "%4x", &code) != 1) return false;
      out->push_back(static_cast<char>(code));
      i += 4;
    } else {
      return false;
    }
  }
  return false;
}

bool ParseField(const std::string& line, const char* key, double* out) {
  size_t pos = 0;
  if (!FindValue(line, key, &pos)) return false;
  // The same %lf parse FormatDouble validated against, so the double comes
  // back bitwise.
  return std::sscanf(line.c_str() + pos, "%lf", out) == 1;
}

bool ParseField(const std::string& line, const char* key, uint64_t* out) {
  size_t pos = 0;
  if (!FindValue(line, key, &pos)) return false;
  unsigned long long v = 0;
  if (std::sscanf(line.c_str() + pos, "%llu", &v) != 1) return false;
  *out = v;
  return true;
}

bool ParseField(const std::string& line, const char* key, std::string* out) {
  size_t pos = 0;
  return FindValue(line, key, &pos) && ParseJsonString(line, pos, out);
}

}  // namespace

std::vector<AuditRecord> AuditLedger::ParseJsonl(const std::string& text) {
  std::vector<AuditRecord> records;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    // A line without its newline is a torn tail (the writer appends the
    // record and terminator in one fwrite, but a crashed kernel flush can
    // still split them) — stop cleanly, like the WAL reader does.
    if (end == std::string::npos) break;
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    AuditRecord r;
    if (!ParseField(line, "seq", &r.seq) ||
        !ParseField(line, "stage", &r.stage) ||
        !ParseField(line, "mechanism", &r.mechanism) ||
        !ParseField(line, "epsilon", &r.epsilon) ||
        !ParseField(line, "sensitivity", &r.sensitivity) ||
        !ParseField(line, "composition", &r.composition) ||
        !ParseField(line, "consumed_after", &r.consumed_after)) {
      break;
    }
    records.push_back(std::move(r));
  }
  return records;
}

std::string AuditLedger::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const AuditRecord& r : records_) {
    out += RecordJson(r);
    out += "\n";
  }
  return out;
}

}  // namespace stpt::dp
