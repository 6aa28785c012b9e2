//===- support/JSON.h - Minimal JSON value and writer -----------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small JSON value tree with serialization. Used for vulnerability
/// reports (Graph.js emits machine-readable findings) and for the
/// sink/source configuration file (§4: "The list of Sinks considered by
/// Graph.js can be set dynamically via a configuration file"). For
/// documents written or read once per scanned package (journal lines,
/// worker requests) a writer and a one-pass reader skip the tree.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_SUPPORT_JSON_H
#define GJS_SUPPORT_JSON_H

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace gjs {
namespace json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A JSON value: null, bool, number, string, array, or object.
class Value {
public:
  Value() : Data(nullptr) {}
  Value(std::nullptr_t) : Data(nullptr) {}
  Value(bool B) : Data(B) {}
  Value(int I) : Data(static_cast<double>(I)) {}
  Value(unsigned I) : Data(static_cast<double>(I)) {}
  Value(long I) : Data(static_cast<double>(I)) {}
  Value(unsigned long I) : Data(static_cast<double>(I)) {}
  Value(double D) : Data(D) {}
  Value(const char *S) : Data(std::string(S)) {}
  Value(std::string S) : Data(std::move(S)) {}
  Value(Array A) : Data(std::move(A)) {}
  Value(Object O) : Data(std::move(O)) {}

  bool isNull() const { return std::holds_alternative<std::nullptr_t>(Data); }
  bool isBool() const { return std::holds_alternative<bool>(Data); }
  bool isNumber() const { return std::holds_alternative<double>(Data); }
  bool isString() const { return std::holds_alternative<std::string>(Data); }
  bool isArray() const { return std::holds_alternative<Array>(Data); }
  bool isObject() const { return std::holds_alternative<Object>(Data); }

  bool asBool() const { return std::get<bool>(Data); }
  double asNumber() const { return std::get<double>(Data); }
  const std::string &asString() const { return std::get<std::string>(Data); }
  const Array &asArray() const { return std::get<Array>(Data); }
  Array &asArray() { return std::get<Array>(Data); }
  const Object &asObject() const { return std::get<Object>(Data); }
  Object &asObject() { return std::get<Object>(Data); }

  /// Serializes this value. With \p Indent > 0, pretty-prints using that
  /// many spaces per nesting level. Object keys come out sorted.
  std::string str(unsigned Indent = 0) const;

private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> Data;
};

/// Appends \p S to \p Out as a quoted JSON string literal: `"` and `\`
/// escaped, control characters as \n, \t, \r or \u00XX.
void writeString(std::string &Out, std::string_view S);

/// Appends \p D to \p Out as a JSON number: integral values below 1e15 in
/// magnitude without a fraction ("42", "-0"), anything else with 17
/// significant digits (printf "%.17g").
void writeNumber(std::string &Out, double D);

/// Appends a JSON array to \p Out: \p Write appends each element.
template <typename Range, typename Fn>
void writeArray(std::string &Out, const Range &Elements, Fn &&Write) {
  Out += '[';
  bool First = true;
  for (const auto &E : Elements) {
    if (!First)
      Out += ',';
    First = false;
    Write(E);
  }
  Out += ']';
}

/// Writes one compact JSON object's members straight into a string, with
/// no Value tree in between. The caller adds members in sorted key order,
/// the order a json::Object (a std::map) prints them in, so the bytes are
/// what Value::str of the same object would give.
class ObjectWriter {
public:
  explicit ObjectWriter(std::string &Out) : Out(Out) { Out += '{'; }
  void close() { Out += '}'; }

  /// Starts the member \p Key and returns the string its value goes into.
  std::string &key(std::string_view Key) {
    if (!First)
      Out += ',';
    First = false;
    writeString(Out, Key);
    Out += ':';
    return Out;
  }
  void num(std::string_view Key, double V) { writeNumber(key(Key), V); }
  void str(std::string_view Key, std::string_view V) {
    writeString(key(Key), V);
  }
  void boolean(std::string_view Key, bool V) {
    key(Key) += V ? "true" : "false";
  }

private:
  std::string &Out;
  bool First = true;
};

/// A one-pass cursor over JSON text for a reader that knows the shape of
/// the document: each call consumes one value and nothing builds a Value
/// tree. A call that meets malformed input, including a number that does
/// not fit a double ("1e999"), returns false and leaves the reader failed;
/// nothing throws. Supports the full JSON grammar; \u escapes outside the
/// BMP are not paired.
class Reader {
public:
  explicit Reader(std::string_view Text) : Text(Text) {}

  /// The next value's kind by its first character: '{', '[', '"', 't' or
  /// 'f' (a boolean), 'n' (null), anything else a number; '\0' at the end.
  char peek() {
    skipWhitespace();
    return Pos < Text.size() ? Text[Pos] : '\0';
  }

  /// Reads an object, calling \p Member(Key) for each member with the
  /// reader at its value, which Member must read or skip(). \p Key stays
  /// valid until the next read. Member returns false to fail the read.
  template <typename Fn> bool object(Fn &&Member) {
    std::string_view Key;
    if (!consume('{'))
      return false;
    for (bool First = true; nextKey(First, Key); First = false)
      if (!Member(Key))
        return fail("bad value");
    return !failed();
  }

  /// Reads an array, calling \p Element() for each element with the reader
  /// at it, which Element must read or skip(); false fails the read.
  template <typename Fn> bool array(Fn &&Element) {
    if (!consume('['))
      return false;
    for (bool First = true; nextElement(First); First = false)
      if (!Element())
        return fail("bad element");
    return !failed();
  }

  bool string(std::string &Out);
  bool number(double &Out);
  bool boolean(bool &Out);
  bool null();
  /// Reads and drops one value of any kind.
  bool skip();

  /// Lenient field reads: a value of the wanted kind is read into \p Out
  /// (and *Read set), a value of any other kind is skipped and Out left as
  /// it was.
  bool stringOrSkip(std::string &Out, bool *Read = nullptr);
  bool numberOrSkip(double &Out, bool *Read = nullptr);
  bool booleanOrSkip(bool &Out);

  /// Only whitespace remains.
  bool atEnd() { return peek() == '\0' && Pos == Text.size(); }
  bool failed() const { return !Err.empty(); }
  /// What went wrong and where, once failed.
  const std::string &error() const { return Err; }

private:
  bool fail(const std::string &Message);
  void skipWhitespace();
  bool consume(char C);
  /// Steps past the closing brace (false: the object ended, or the read
  /// failed) or the separator, then reads the next key and its colon.
  bool nextKey(bool First, std::string_view &Key);
  bool nextElement(bool First);
  /// A string literal's characters: a view into the text when they hold
  /// no escape, else decoded into \p Buf.
  bool stringView(std::string_view &Out, std::string &Buf);

  std::string_view Text;
  size_t Pos = 0;
  std::string Err;
  std::string KeyBuf;
};

/// Parses JSON text into a Value tree. Returns false, with the reason in
/// \p Error, on malformed input (see Reader); never throws on input.
bool parse(std::string_view Text, Value &Out, std::string *Error = nullptr);

} // namespace json
} // namespace gjs

#endif // GJS_SUPPORT_JSON_H
