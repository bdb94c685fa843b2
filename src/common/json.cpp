#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/check.hpp"

namespace g10 {

void json_escape(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  G10_CHECK(ec == std::errc());
  return std::string(buf, ptr);
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    if (stack_.back()) os_ << ',';
    stack_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  os_ << '{';
  stack_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  G10_CHECK(!stack_.empty() && !after_key_);
  stack_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  os_ << '[';
  stack_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  G10_CHECK(!stack_.empty() && !after_key_);
  stack_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  G10_CHECK(!stack_.empty() && !after_key_);
  if (stack_.back()) os_ << ',';
  stack_.back() = true;
  std::string quoted;
  json_escape(quoted, k);
  os_ << quoted << ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  std::string quoted;
  json_escape(quoted, v);
  os_ << quoted;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  os_ << json_double(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  separate();
  os_ << "null";
  return *this;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> run() {
    skip_ws();
    JsonValue v;
    if (!parse_value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON document");
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(std::string_view message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = std::string(message) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.kind_ = JsonValue::Kind::kString;
        return parse_string(out.string_);
      case 't':
        if (text_.substr(pos_, 4) != "true") return fail("bad literal");
        pos_ += 4;
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = true;
        return true;
      case 'f':
        if (text_.substr(pos_, 5) != "false") return fail("bad literal");
        pos_ += 5;
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = false;
        return true;
      case 'n':
        if (text_.substr(pos_, 4) != "null") return fail("bad literal");
        pos_ += 4;
        out.kind_ = JsonValue::Kind::kNull;
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members_.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.items_.push_back(std::move(value));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (we never emit surrogates for
          // the control characters the writer escapes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view raw = text_.substr(start, pos_ - start);
    if (raw.empty()) return fail("expected a JSON value");
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(raw.data(), raw.data() + raw.size(), v);
    if (ec != std::errc() || ptr != raw.data() + raw.size()) {
      return fail("malformed number");
    }
    out.kind_ = JsonValue::Kind::kNumber;
    out.number_ = v;
    out.raw_number_ = std::string(raw);
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

std::optional<JsonValue> JsonValue::parse(std::string_view text,
                                          std::string* error) {
  return JsonParser(text, error).run();
}

bool JsonValue::as_bool() const {
  G10_CHECK(kind_ == Kind::kBool);
  return bool_;
}

double JsonValue::as_double() const {
  G10_CHECK(kind_ == Kind::kNumber);
  return number_;
}

std::int64_t JsonValue::as_int() const {
  G10_CHECK(kind_ == Kind::kNumber);
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(
      raw_number_.data(), raw_number_.data() + raw_number_.size(), v);
  if (ec == std::errc() && ptr == raw_number_.data() + raw_number_.size()) {
    return v;
  }
  // Saturate: converting an out-of-range double is undefined behavior. The
  // parser admits finite numbers only.
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (number_ >= kTwoTo63) return std::numeric_limits<std::int64_t>::max();
  if (number_ < -kTwoTo63) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(number_);
}

std::uint64_t JsonValue::as_uint() const {
  G10_CHECK(kind_ == Kind::kNumber);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(
      raw_number_.data(), raw_number_.data() + raw_number_.size(), v);
  if (ec == std::errc() && ptr == raw_number_.data() + raw_number_.size()) {
    return v;
  }
  // Saturate, as as_int does.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (number_ >= kTwoTo64) return std::numeric_limits<std::uint64_t>::max();
  if (number_ <= -1.0) return 0;
  return static_cast<std::uint64_t>(number_);
}

const std::string& JsonValue::as_string() const {
  G10_CHECK(kind_ == Kind::kString);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  G10_CHECK(kind_ == Kind::kArray);
  return items_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::get_double(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind_ == Kind::kNumber ? v->number_ : fallback;
}

std::int64_t JsonValue::get_int(std::string_view key,
                                std::int64_t fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind_ == Kind::kNumber ? v->as_int() : fallback;
}

std::uint64_t JsonValue::get_uint(std::string_view key,
                                  std::uint64_t fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind_ == Kind::kNumber ? v->as_uint() : fallback;
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string_view fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind_ == Kind::kString ? v->string_
                                                   : std::string(fallback);
}

bool JsonValue::get_bool(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind_ == Kind::kBool ? v->bool_ : fallback;
}

}  // namespace g10
