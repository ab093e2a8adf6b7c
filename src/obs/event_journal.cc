#include "obs/event_journal.h"

#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_utils.h"
#include "obs/metric_registry.h"

namespace redoop {
namespace obs {

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StringPrintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Span-boundary keys for atomic flight-recorder eviction. A begin event
// and its end event map to the same key; "" means the event is not a span
// boundary. Task ids are unique per run; job and window keys carry the
// query label so concurrent queries cannot alias.
std::string SpanBeginKey(const Event& e) {
  const std::string& t = e.type();
  if (t == event::kTaskStart) {
    return StringPrintf("task/%lld",
                        static_cast<long long>(e.IntOr("task", -1)));
  }
  if (t == event::kJobStart) {
    return "job/" + e.StrOr("query", "") + "/" + e.StrOr("job", "");
  }
  if (t == event::kWindowOpen) {
    return StringPrintf("window/%s/%lld", e.StrOr("query", "").c_str(),
                        static_cast<long long>(e.IntOr("recurrence", -1)));
  }
  return std::string();
}

std::string SpanEndKey(const Event& e) {
  const std::string& t = e.type();
  if (t == event::kTaskFinish || t == event::kTaskFail) {
    return StringPrintf("task/%lld",
                        static_cast<long long>(e.IntOr("task", -1)));
  }
  if (t == event::kJobFinish) {
    return "job/" + e.StrOr("query", "") + "/" + e.StrOr("job", "");
  }
  if (t == event::kWindowComplete) {
    return StringPrintf("window/%s/%lld", e.StrOr("query", "").c_str(),
                        static_cast<long long>(e.IntOr("recurrence", -1)));
  }
  return std::string();
}

}  // namespace

Event& Event::With(std::string_view key, std::string_view value) {
  EventField f;
  f.key = std::string(key);
  f.kind = EventField::Kind::kString;
  f.str = std::string(value);
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::With(std::string_view key, double value) {
  EventField f;
  f.key = std::string(key);
  f.kind = EventField::Kind::kDouble;
  f.f64 = value;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::WithInt(std::string_view key, int64_t value) {
  EventField f;
  f.key = std::string(key);
  f.kind = EventField::Kind::kInt;
  f.i64 = value;
  fields_.push_back(std::move(f));
  return *this;
}

const EventField* Event::Find(std::string_view key) const {
  for (const auto& f : fields_) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

int64_t Event::IntOr(std::string_view key, int64_t fallback) const {
  const EventField* f = Find(key);
  if (f == nullptr) return fallback;
  if (f->kind == EventField::Kind::kInt) return f->i64;
  if (f->kind == EventField::Kind::kDouble) {
    return static_cast<int64_t>(f->f64);
  }
  return fallback;
}

double Event::DoubleOr(std::string_view key, double fallback) const {
  const EventField* f = Find(key);
  if (f == nullptr) return fallback;
  if (f->kind == EventField::Kind::kDouble) return f->f64;
  if (f->kind == EventField::Kind::kInt) return static_cast<double>(f->i64);
  return fallback;
}

std::string Event::StrOr(std::string_view key,
                         std::string_view fallback) const {
  const EventField* f = Find(key);
  if (f == nullptr || f->kind != EventField::Kind::kString) {
    return std::string(fallback);
  }
  return f->str;
}

std::string Event::ToJson() const {
  std::string out = StringPrintf("{\"t\":%.6f,\"type\":\"%s\"", time_,
                                 JsonEscape(type_).c_str());
  for (const auto& f : fields_) {
    out += StringPrintf(",\"%s\":", JsonEscape(f.key).c_str());
    switch (f.kind) {
      case EventField::Kind::kString:
        out += StringPrintf("\"%s\"", JsonEscape(f.str).c_str());
        break;
      case EventField::Kind::kInt:
        out += StringPrintf("%lld", static_cast<long long>(f.i64));
        break;
      case EventField::Kind::kDouble: {
        std::string repr = FormatDouble(f.f64);
        // Keep doubles round-trippable as doubles: a bare integer repr
        // would re-parse as an int field.
        if (repr.find('.') == std::string::npos &&
            repr.find('e') == std::string::npos &&
            repr.find("inf") == std::string::npos &&
            repr.find("nan") == std::string::npos) {
          repr += ".0";
        }
        out += repr;
        break;
      }
    }
  }
  out += "}";
  return out;
}

void EventJournal::SetCommonField(std::string key, std::string value) {
  for (auto& [k, v] : common_fields_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  common_fields_.emplace_back(std::move(key), std::move(value));
}

std::string EventJournal::CommonFieldOr(std::string_view key,
                                        std::string_view fallback) const {
  for (const auto& [k, v] : common_fields_) {
    if (k == key) return v;
  }
  return std::string(fallback);
}

Event& EventJournal::Append(double time, std::string type) {
  // Single-writer assertion: the first Append (after construction, Clear,
  // or Parse) pins the owning thread; cross-thread appends are a contract
  // violation, not a supported mode — the journal is a deterministic
  // ordered stream, and two writers would make the order racy.
  const std::thread::id self = std::this_thread::get_id();
  if (writer_ == std::thread::id()) {
    writer_ = self;
  } else {
    REDOOP_CHECK(writer_ == self)
        << "EventJournal::Append from a second thread violates the "
           "single-writer contract";
  }
  SealAndEvict();
  events_.emplace_back(time, std::move(type));
  Event& e = events_.back();
  for (const auto& [key, value] : common_fields_) {
    e.With(key, value);
  }
  return e;
}

void EventJournal::SetRetentionBudget(int64_t max_bytes) {
  retention_budget_ = max_bytes;
  if (retention_budget_ <= 0) return;
  // Appends made without a budget sealed nothing: charge them now, all
  // but the newest (its .With chain may still grow). Events appended while
  // unbounded skip the span-orphan checks, wherever they are sealed.
  while (sealed_sizes_.size() + 1 < events_.size()) {
    const int64_t bytes =
        static_cast<int64_t>(events_[sealed_sizes_.size()].ToJson().size()) +
        1;  // +'\n'
    sealed_sizes_.push_back(bytes);
    sealed_bytes_ += bytes;
  }
}

void EventJournal::SealAndEvict() {
  // Without a budget nothing is ever evicted, so sizes are not worth a
  // JSON rendering; SetRetentionBudget seals the backlog if one arrives.
  if (retention_budget_ <= 0) return;
  // The newest event's fluent .With chain completes before the next
  // Append, so its serialized size is only knowable (and charged) here.
  if (events_.size() > sealed_sizes_.size()) {
    const int64_t bytes =
        static_cast<int64_t>(events_.back().ToJson().size()) + 1;  // +'\n'
    // A span end whose begin was already evicted is dropped at the seal
    // point: retaining it would fabricate an end-without-begin span.
    const std::string end_key = SpanEndKey(events_.back());
    if (!end_key.empty() && pending_orphan_ends_.erase(end_key) > 0) {
      dropped_bytes_ += bytes;
      ++dropped_events_;
      events_.pop_back();
      return;
    }
    // A fresh begin supersedes any stale orphan entry for its key (the
    // key now names a new, fully retained span whose end must survive).
    const std::string begin_key = SpanBeginKey(events_.back());
    if (!begin_key.empty()) pending_orphan_ends_.erase(begin_key);
    sealed_sizes_.push_back(bytes);
    sealed_bytes_ += bytes;
  }
  while (sealed_bytes_ > retention_budget_ && !sealed_sizes_.empty()) {
    const std::string begin_key = SpanBeginKey(events_.front());
    dropped_bytes_ += sealed_sizes_.front();
    sealed_bytes_ -= sealed_sizes_.front();
    sealed_sizes_.pop_front();
    events_.pop_front();
    ++dropped_events_;
    if (begin_key.empty()) continue;
    // Evict the whole span: drop the matching end event with its begin.
    // Spans with one key never interleave (task ids are unique; jobs and
    // windows of one query are serial), so the first matching end in the
    // sealed region is the right one.
    bool found = false;
    for (size_t i = 0; i < sealed_sizes_.size(); ++i) {
      if (SpanEndKey(events_[i]) != begin_key) continue;
      dropped_bytes_ += sealed_sizes_[i];
      sealed_bytes_ -= sealed_sizes_[i];
      sealed_sizes_.erase(sealed_sizes_.begin() +
                          static_cast<ptrdiff_t>(i));
      events_.erase(events_.begin() + static_cast<ptrdiff_t>(i));
      ++dropped_events_;
      found = true;
      break;
    }
    // Not journaled (or not yet sealed): catch it when it arrives.
    if (!found) pending_orphan_ends_.insert(begin_key);
  }
}

size_t EventJournal::CountType(std::string_view type) const {
  size_t n = 0;
  for (const auto& e : events_) {
    if (e.type() == type) ++n;
  }
  return n;
}

std::string EventJournal::ToJsonl() const {
  std::string out;
  if (dropped_events_ > 0) {
    // Lead a truncated journal with its marker so any consumer sees the
    // loss before the first surviving event. The timestamp is the oldest
    // retained event's (0 if nothing survived), which is recomputed
    // identically on reserialize, keeping parse -> serialize an identity.
    Event marker(events_.empty() ? 0.0 : events_.front().time(),
                 event::kJournalTruncated);
    marker.With("dropped_events", dropped_events_)
        .With("dropped_bytes", dropped_bytes_);
    out += marker.ToJson();
    out += '\n';
  }
  for (const auto& e : events_) {
    out += e.ToJson();
    out += '\n';
  }
  return out;
}

Status EventJournal::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Unavailable("cannot open " + path + " for writing");
  }
  const std::string body = ToJsonl();
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    return Status::Unavailable("short write to " + path);
  }
  return Status::OK();
}

namespace {

// Minimal scanner for the journal's own output format: one flat JSON
// object per line, keys and string values with the escapes JsonEscape
// emits, numbers as printf renders them.
class LineParser {
 public:
  LineParser(std::string_view line, size_t line_number)
      : s_(line), line_number_(line_number) {}

  Status Run(EventJournal* out) {
    if (!Consume('{')) return Error("expected '{'");
    double time = 0.0;
    std::string key;
    if (!ParseString(&key) || key != "t" || !Consume(':')) {
      return Error("expected \"t\" field first");
    }
    std::string number;
    bool is_double = false;
    if (!ParseNumber(&number, &is_double)) return Error("bad time");
    time = std::strtod(number.c_str(), nullptr);
    if (!Consume(',')) return Error("expected ','");
    if (!ParseString(&key) || key != "type" || !Consume(':')) {
      return Error("expected \"type\" field second");
    }
    std::string type;
    if (!ParseString(&type)) return Error("bad type");
    Event& e = out->Append(time, std::move(type));
    while (Consume(',')) {
      if (!ParseString(&key) || !Consume(':')) return Error("bad field key");
      if (Peek() == '"') {
        std::string value;
        if (!ParseString(&value)) return Error("bad string value");
        e.With(key, value);
      } else {
        if (!ParseNumber(&number, &is_double)) return Error("bad number");
        if (is_double) {
          e.With(key, std::strtod(number.c_str(), nullptr));
        } else {
          e.With(key, static_cast<int64_t>(
                          std::strtoll(number.c_str(), nullptr, 10)));
        }
      }
    }
    if (!Consume('}')) return Error("expected '}'");
    if (pos_ != s_.size()) return Error("trailing garbage after '}'");
    return Status::OK();
  }

 private:
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char esc = s_[pos_++];
        switch (esc) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            const std::string hex(s_.substr(pos_, 4));
            pos_ += 4;
            out->push_back(static_cast<char>(
                std::strtol(hex.c_str(), nullptr, 16)));
            break;
          }
          default: out->push_back(esc);
        }
      } else {
        out->push_back(c);
      }
    }
    return Consume('"');
  }

  bool ParseNumber(std::string* out, bool* is_double) {
    out->clear();
    *is_double = false;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E' || c == 'i' || c == 'n' || c == 'f' ||
          c == 'a') {
        if (c == '.' || c == 'e' || c == 'E' || c == 'i' || c == 'n') {
          *is_double = true;
        }
        out->push_back(c);
        ++pos_;
      } else {
        break;
      }
    }
    return !out->empty();
  }

  Status Error(const char* what) const {
    return Status::InvalidArgument(
        StringPrintf("journal parse error at line %zu, offset %zu: %s",
                     line_number_, pos_, what));
  }

  std::string_view s_;
  size_t line_number_ = 0;
  size_t pos_ = 0;
};

}  // namespace

Status EventJournal::Parse(std::string_view jsonl, EventJournal* out) {
  // Accumulate into a fresh journal and swap in on success: `out`'s
  // registered common fields must not restamp parsed lines (they already
  // carry theirs inline — the seed appended through `out` directly, which
  // silently duplicated fields when loading into a configured journal),
  // and a failed parse must not leave `out` half-loaded.
  EventJournal parsed;
  size_t start = 0;
  size_t line_number = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string_view::npos) end = jsonl.size();
    std::string_view line = jsonl.substr(start, end - start);
    ++line_number;
    if (!line.empty()) {
      Status s = LineParser(line, line_number).Run(&parsed);
      if (!s.ok()) {
        *out = EventJournal();
        return s;
      }
      // A truncation marker is journal metadata, not an event: fold it
      // back into the counters so a reserialize regenerates it.
      if (parsed.events_.back().type() == event::kJournalTruncated) {
        const Event& marker = parsed.events_.back();
        parsed.dropped_events_ += marker.IntOr("dropped_events", 0);
        parsed.dropped_bytes_ += marker.IntOr("dropped_bytes", 0);
        parsed.events_.pop_back();
      }
    }
    start = end + 1;
  }
  parsed.writer_ = std::thread::id();  // Unpin: parsing is not authorship.
  *out = std::move(parsed);
  return Status::OK();
}

Status EventJournal::LoadFile(const std::string& path, EventJournal* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open " + path + " for reading");
  }
  std::string body;
  char buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    body.append(buffer, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Unavailable("read error on " + path);
  }
  return Parse(body, out);
}

}  // namespace obs
}  // namespace redoop
