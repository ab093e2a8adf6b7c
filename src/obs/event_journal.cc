#include "obs/event_journal.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_utils.h"
#include "obs/metric_registry.h"

namespace redoop {
namespace obs {

namespace {

// Appends `s` with JSON escapes for quotes, backslashes and control
// characters.
void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
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

// Chunked storage behind one journal, or behind one standalone event: the
// fields and string bytes of its events plus their interned keys and type
// names. A chunk packs fields from its front and string bytes from its
// back. An event's fields must stay contiguous, so a field that does not
// fit after them moves them to a fresh chunk; their strings stay put.
// Chunks are released oldest-first once no retained event points into
// them (Event::chunk_ names the oldest chunk an event touches).
class EventStore {
 public:
  EventStore() = default;
  // Events point into the store, so it never moves.
  EventStore(const EventStore&) = delete;
  EventStore& operator=(const EventStore&) = delete;

  /// Interns `text` for the store's lifetime. Keys and type names come
  /// from a small closed set of literals (plus parsed text), so a
  /// direct-mapped cache keyed by the caller's pointer answers almost
  /// every call with one pointer-plus-content compare; its content check
  /// keeps a reused buffer (a parser's key string) from aliasing.
  const std::string* Intern(std::string_view text) {
    const uint64_t address = reinterpret_cast<uintptr_t>(text.data());
    Recent& slot =
        recent_[(address * 0x9E3779B97F4A7C15ull) >> (64 - kRecentBits)];
    if (slot.data == text.data() && slot.text != nullptr &&
        *slot.text == text) {
      return slot.text;
    }
    auto it = table_.find(text);
    if (it == table_.end()) {
      const std::string* interned = &interned_.emplace_back(text);
      interned_bytes_ +=
          static_cast<int64_t>(sizeof(std::string) + interned->size());
      it = table_.emplace(*interned, interned).first;
    }
    slot = {text.data(), it->second};
    return it->second;
  }

  /// Id of the chunk new fields and strings go to.
  uint32_t current_chunk() const {
    return chunks_.empty() ? next_chunk_id_ : chunks_.back().id;
  }

  /// Appends one field slot to `e` plus `chars` string bytes, returned in
  /// *bytes. The slot is value-initialized; the caller fills it in.
  EventField* Extend(Event* e, size_t chars, char** bytes) {
    constexpr size_t kField = sizeof(EventField);
    Chunk* c = chunks_.empty() ? nullptr : &chunks_.back();
    bool in_place = c != nullptr &&
                    (e->size_ == 0 || e->fields_ + e->size_ == c->field_end());
    const size_t need = (in_place ? 0 : e->size_ * kField) + kField + chars;
    if (c == nullptr || c->back - c->front < need) {
      c = &NewChunk(e->size_ * kField + kField + chars);
      in_place = e->size_ == 0;
    }
    if (!in_place) {
      EventField* moved = c->field_end();
      std::uninitialized_copy_n(e->fields_, e->size_, moved);
      c->front += e->size_ * kField;
      e->fields_ = moved;
    }
    if (e->size_ == 0) {
      e->fields_ = c->field_end();
      e->chunk_ = c->id;
    }
    EventField* slot = new (c->data.get() + c->front) EventField();
    c->front += kField;
    ++e->size_;
    c->back -= chars;
    *bytes = reinterpret_cast<char*>(c->data.get() + c->back);
    return slot;
  }

  /// Frees every chunk older than `chunk`.
  void ReleaseBefore(uint32_t chunk) {
    while (!chunks_.empty() && chunks_.front().id < chunk) {
      chunk_bytes_ -= static_cast<int64_t>(chunks_.front().capacity);
      chunks_.pop_front();
    }
  }

  /// Frees every chunk; interned names survive.
  void ReleaseAll() {
    chunks_.clear();
    chunk_bytes_ = 0;
  }

  int64_t bytes() const { return chunk_bytes_ + interned_bytes_; }

 private:
  static constexpr int kRecentBits = 8;

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
    size_t front = 0;  ///< Bytes of fields, packed from the start.
    size_t back = 0;   ///< Offset of the string bytes, packed to the end.
    uint32_t id = 0;

    EventField* field_end() const {
      return reinterpret_cast<EventField*>(data.get() + front);
    }
  };

  Chunk& NewChunk(size_t min_bytes) {
    Chunk& c = chunks_.emplace_back();
    c.capacity = std::max(EventJournal::kStorageChunkBytes, min_bytes);
    c.data = std::make_unique_for_overwrite<std::byte[]>(c.capacity);
    c.back = c.capacity;
    c.id = next_chunk_id_++;
    chunk_bytes_ += static_cast<int64_t>(c.capacity);
    return c;
  }

  std::deque<Chunk> chunks_;
  uint32_t next_chunk_id_ = 0;
  int64_t chunk_bytes_ = 0;

  struct Recent {
    const char* data = nullptr;
    const std::string* text = nullptr;
  };
  std::array<Recent, size_t{1} << kRecentBits> recent_{};
  std::unordered_map<std::string_view, const std::string*> table_;
  std::deque<std::string> interned_;  ///< Stable addresses for table_.
  int64_t interned_bytes_ = 0;
};

Event::Event(double time, std::string_view type)
    : time_(time), own_store_(std::make_unique<EventStore>()) {
  store_ = own_store_.get();
  type_ = store_->Intern(type);
  chunk_ = store_->current_chunk();
}

Event::Event(double time, std::string_view type, EventStore* store)
    : time_(time),
      type_(store->Intern(type)),
      chunk_(store->current_chunk()),
      store_(store) {}

Event::Event(Event&&) noexcept = default;
Event& Event::operator=(Event&&) noexcept = default;
Event::~Event() = default;

EventField& Event::Add(std::string_view key, EventField::Kind kind,
                       std::string_view chars) {
  REDOOP_CHECK(chars.size() <= UINT32_MAX) << "event field value too long";
  const std::string* interned = store_->Intern(key);
  char* bytes = nullptr;
  EventField* f = store_->Extend(this, chars.size(), &bytes);
  f->key_ = interned;
  f->kind = kind;
  if (kind == EventField::Kind::kString) {
    if (!chars.empty()) std::memcpy(bytes, chars.data(), chars.size());
    f->length_ = static_cast<uint32_t>(chars.size());
    f->chars = bytes;
  }
  return *f;
}

Event& Event::With(std::string_view key, std::string_view value) {
  Add(key, EventField::Kind::kString, value);
  return *this;
}

Event& Event::With(std::string_view key, double value) {
  Add(key, EventField::Kind::kDouble).f64 = value;
  return *this;
}

Event& Event::WithInt(std::string_view key, int64_t value) {
  Add(key, EventField::Kind::kInt).i64 = value;
  return *this;
}

const EventField* Event::Find(std::string_view key) const {
  for (const EventField& f : fields()) {
    if (f.key() == key) return &f;
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
  return std::string(f->str());
}

std::string Event::ToJson() const {
  std::string out;
  AppendJson(&out);
  return out;
}

void Event::AppendJson(std::string* out) const {
  char buf[400];  // Fits %.6f of any double (at most 317 characters).
  out->append(buf, static_cast<size_t>(std::snprintf(
                       buf, sizeof(buf), "{\"t\":%.6f,\"type\":\"", time_)));
  AppendJsonEscaped(*type_, out);
  *out += '"';
  for (const EventField& f : fields()) {
    *out += ",\"";
    AppendJsonEscaped(f.key(), out);
    *out += "\":";
    switch (f.kind) {
      case EventField::Kind::kString:
        *out += '"';
        AppendJsonEscaped(f.str(), out);
        *out += '"';
        break;
      case EventField::Kind::kInt:
        out->append(buf, std::to_chars(buf, buf + sizeof(buf), f.i64).ptr);
        break;
      case EventField::Kind::kDouble: {
        const std::string repr = FormatDouble(f.f64);
        *out += repr;
        // Keep doubles round-trippable as doubles: a bare integer repr
        // would re-parse as an int field.
        if (repr.find('.') == std::string::npos &&
            repr.find('e') == std::string::npos &&
            repr.find("inf") == std::string::npos &&
            repr.find("nan") == std::string::npos) {
          *out += ".0";
        }
        break;
      }
    }
  }
  *out += '}';
}

EventJournal::EventJournal() = default;
EventJournal::EventJournal(EventJournal&&) noexcept = default;
EventJournal& EventJournal::operator=(EventJournal&&) noexcept = default;
EventJournal::~EventJournal() = default;

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

Event& EventJournal::Append(double time, std::string_view type) {
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
  if (store_ == nullptr) store_ = std::make_unique<EventStore>();
  SealAndEvict();
  Event& e = events_.emplace_back(Event(time, type, store_.get()));
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
  // Hand back the storage no retained event points into. Eviction is
  // oldest-first, so the front event bounds it; an end dropped from the
  // middle only delays its chunk.
  store_->ReleaseBefore(events_.empty() ? store_->current_chunk()
                                        : events_.front().chunk_);
}

void EventJournal::Clear() {
  events_.clear();
  if (store_ != nullptr) store_->ReleaseAll();
  sealed_sizes_.clear();
  sealed_bytes_ = 0;
  dropped_events_ = 0;
  dropped_bytes_ = 0;
  pending_orphan_ends_.clear();
  writer_ = std::thread::id();
}

int64_t EventJournal::storage_bytes() const {
  return (store_ == nullptr ? 0 : store_->bytes()) +
         static_cast<int64_t>(events_.size() * sizeof(Event) +
                              sealed_sizes_.size() * sizeof(int64_t));
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
    marker.AppendJson(&out);
    out += '\n';
  }
  for (const auto& e : events_) {
    e.AppendJson(&out);
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
// object per line, keys and string values with the escapes
// AppendJsonEscaped emits, numbers as AppendJson renders them.
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
    Event& e = out->Append(time, type);
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
