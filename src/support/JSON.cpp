//===- support/JSON.cpp - Minimal JSON value and writer -------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/JSON.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

using namespace gjs;
using namespace gjs::json;

void json::writeString(std::string &Out, std::string_view S) {
  static const char Hex[] = "0123456789abcdef";
  Out += '"';
  size_t Run = 0; // Start of the pending run of characters that need no escape.
  for (size_t I = 0; I < S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default: {
      const char Esc[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xf]};
      Out.append(Esc, sizeof(Esc));
    }
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
  Out += '"';
}

void json::writeNumber(std::string &Out, double D) {
  char Buf[32];
  std::to_chars_result R;
  // Integral values print without a trailing ".0" so reports stay tidy.
  if (D == std::floor(D) && std::abs(D) < 1e15) {
    if (D == 0 && std::signbit(D)) {
      Out += "-0";
      return;
    }
    R = std::to_chars(Buf, Buf + sizeof(Buf), static_cast<int64_t>(D));
  } else {
    R = std::to_chars(Buf, Buf + sizeof(Buf), D, std::chars_format::general,
                      17);
  }
  Out.append(Buf, R.ptr);
}

static void writeValue(const Value &V, std::string &Out, unsigned Indent,
                       unsigned Depth) {
  auto NewLine = [&](unsigned D) {
    if (Indent == 0)
      return;
    Out += '\n';
    Out.append(static_cast<size_t>(Indent) * D, ' ');
  };

  if (V.isNull()) {
    Out += "null";
  } else if (V.isBool()) {
    Out += V.asBool() ? "true" : "false";
  } else if (V.isNumber()) {
    writeNumber(Out, V.asNumber());
  } else if (V.isString()) {
    writeString(Out, V.asString());
  } else if (V.isArray()) {
    const Array &A = V.asArray();
    if (A.empty()) {
      Out += "[]";
      return;
    }
    Out += '[';
    bool First = true;
    for (const Value &E : A) {
      if (!First)
        Out += ',';
      First = false;
      NewLine(Depth + 1);
      writeValue(E, Out, Indent, Depth + 1);
    }
    NewLine(Depth);
    Out += ']';
  } else {
    const Object &O = V.asObject();
    if (O.empty()) {
      Out += "{}";
      return;
    }
    Out += '{';
    bool First = true;
    for (const auto &[Key, Val] : O) {
      if (!First)
        Out += ',';
      First = false;
      NewLine(Depth + 1);
      writeString(Out, Key);
      Out += ':';
      if (Indent)
        Out += ' ';
      writeValue(Val, Out, Indent, Depth + 1);
    }
    NewLine(Depth);
    Out += '}';
  }
}

std::string Value::str(unsigned Indent) const {
  std::string Out;
  writeValue(*this, Out, Indent, 0);
  return Out;
}

bool Reader::fail(const std::string &Message) {
  if (Err.empty())
    Err = Message + " at offset " + std::to_string(Pos);
  return false;
}

void Reader::skipWhitespace() {
  while (Pos < Text.size() &&
         (Text[Pos] == ' ' || Text[Pos] == '\n' || Text[Pos] == '\t' ||
          Text[Pos] == '\r' || Text[Pos] == '\f' || Text[Pos] == '\v'))
    ++Pos;
}

bool Reader::consume(char C) {
  if (failed())
    return false;
  if (peek() != C)
    return fail(std::string("expected '") + C + "'");
  ++Pos;
  return true;
}

bool Reader::nextKey(bool First, std::string_view &Key) {
  if (failed())
    return false;
  if (peek() == '}') {
    ++Pos;
    return false;
  }
  if (!First && !consume(','))
    return false;
  return stringView(Key, KeyBuf) && consume(':');
}

bool Reader::nextElement(bool First) {
  if (failed())
    return false;
  if (peek() == ']') {
    ++Pos;
    return false;
  }
  return First || consume(',');
}

bool Reader::stringView(std::string_view &Out, std::string &Buf) {
  if (!consume('"'))
    return false;
  // Where the run from \p From that needs no unescaping ends.
  auto runEnd = [&](size_t From) {
    while (From < Text.size() && Text[From] != '"' && Text[From] != '\\')
      ++From;
    return From;
  };
  // The common case: no escape before the closing quote.
  size_t Stop = runEnd(Pos);
  if (Stop < Text.size() && Text[Stop] == '"') {
    Out = Text.substr(Pos, Stop - Pos);
    Pos = Stop + 1;
    return true;
  }
  Buf.clear();
  while (true) {
    // Copy the run up to the next quote or backslash in one go.
    Buf.append(Text.data() + Pos, Stop - Pos);
    Pos = Stop;
    if (Pos >= Text.size())
      return fail("unterminated string");
    if (Text[Pos++] == '"') {
      Out = Buf;
      return true;
    }
    if (Pos >= Text.size())
      return fail("unterminated escape");
    char E = Text[Pos++];
    switch (E) {
    case '"':
    case '\\':
    case '/':
      Buf += E;
      break;
    case 'n':
      Buf += '\n';
      break;
    case 't':
      Buf += '\t';
      break;
    case 'r':
      Buf += '\r';
      break;
    case 'b':
      Buf += '\b';
      break;
    case 'f':
      Buf += '\f';
      break;
    case 'u': {
      if (Pos + 4 > Text.size())
        return fail("truncated \\u escape");
      unsigned Code = 0;
      for (int I = 0; I < 4; ++I) {
        char H = Text[Pos++];
        Code <<= 4;
        if (H >= '0' && H <= '9')
          Code |= H - '0';
        else if (H >= 'a' && H <= 'f')
          Code |= H - 'a' + 10;
        else if (H >= 'A' && H <= 'F')
          Code |= H - 'A' + 10;
        else
          return fail("bad hex digit in \\u escape");
      }
      // Encode as UTF-8 (no surrogate-pair handling; config files are
      // ASCII in practice).
      if (Code < 0x80) {
        Buf += static_cast<char>(Code);
      } else if (Code < 0x800) {
        Buf += static_cast<char>(0xC0 | (Code >> 6));
        Buf += static_cast<char>(0x80 | (Code & 0x3F));
      } else {
        Buf += static_cast<char>(0xE0 | (Code >> 12));
        Buf += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
        Buf += static_cast<char>(0x80 | (Code & 0x3F));
      }
      break;
    }
    default:
      return fail("unknown escape character");
    }
    Stop = runEnd(Pos);
  }
}

bool Reader::string(std::string &Out) {
  std::string_view View;
  if (!stringView(View, Out))
    return false;
  if (View.data() != Out.data())
    Out.assign(View);
  return true;
}

bool Reader::number(double &Out) {
  if (failed())
    return false;
  skipWhitespace();
  auto isDigit = [&](size_t At) {
    return At < Text.size() && Text[At] >= '0' && Text[At] <= '9';
  };
  size_t Start = Pos, End = Pos;
  if (End < Text.size() && Text[End] == '-')
    ++End;
  while (isDigit(End))
    ++End;
  if (End < Text.size() && Text[End] == '.')
    for (++End; isDigit(End); ++End) {
    }
  if (End < Text.size() && (Text[End] == 'e' || Text[End] == 'E')) {
    ++End;
    if (End < Text.size() && (Text[End] == '+' || Text[End] == '-'))
      ++End;
    while (isDigit(End))
      ++End;
  }
  if (End == Start)
    return fail("expected a JSON value");
  // from_chars neither throws nor reads the locale: a lone "-", a
  // dangling exponent or a value out of double range is malformed input.
  const char *First = Text.data() + Start, *Last = Text.data() + End;
  auto [Ptr, Ec] = std::from_chars(First, Last, Out);
  if (Ec != std::errc() || Ptr != Last)
    return fail("bad number");
  Pos = End;
  return true;
}

bool Reader::boolean(bool &Out) {
  if (failed())
    return false;
  for (bool B : {true, false}) {
    std::string_view Word = B ? "true" : "false";
    if (peek() == Word[0]) {
      if (Text.substr(Pos, Word.size()) != Word)
        return fail("expected '" + std::string(Word) + "'");
      Pos += Word.size();
      Out = B;
      return true;
    }
  }
  return fail("expected a boolean");
}

bool Reader::null() {
  if (failed())
    return false;
  if (peek() != 'n' || Text.substr(Pos, 4) != "null")
    return fail("expected 'null'");
  Pos += 4;
  return true;
}

bool Reader::skip() {
  switch (peek()) {
  case '{':
    return object([&](std::string_view) { return skip(); });
  case '[':
    return array([&] { return skip(); });
  case '"': {
    std::string_view View;
    std::string Buf;
    return stringView(View, Buf);
  }
  case 't':
  case 'f': {
    bool B;
    return boolean(B);
  }
  case 'n':
    return null();
  default: {
    double D;
    return number(D);
  }
  }
}

bool Reader::stringOrSkip(std::string &Out, bool *Read) {
  bool Is = peek() == '"';
  if (Read)
    *Read = Is;
  return Is ? string(Out) : skip();
}

bool Reader::numberOrSkip(double &Out, bool *Read) {
  char C = peek();
  bool Is = C != '\0' && !std::strchr("\"{[tfn", C);
  if (Read)
    *Read = Is;
  return Is ? number(Out) : skip();
}

bool Reader::booleanOrSkip(bool &Out) {
  char C = peek();
  return C == 't' || C == 'f' ? boolean(Out) : skip();
}

/// One value of any kind, as a tree.
static bool readValue(Reader &R, Value &Out) {
  switch (R.peek()) {
  case '{': {
    Object O;
    if (!R.object([&](std::string_view Key) {
          std::string K(Key); // Reading the value may reuse Key's buffer.
          Value V;
          if (!readValue(R, V))
            return false;
          // Keys arrive sorted from every writer here: hint the insert at
          // the end so it costs no search. A repeated key keeps its first
          // value.
          O.emplace_hint(O.end(), std::move(K), std::move(V));
          return true;
        }))
      return false;
    Out = Value(std::move(O));
    return true;
  }
  case '[': {
    Array A;
    if (!R.array([&] {
          A.emplace_back();
          return readValue(R, A.back());
        }))
      return false;
    Out = Value(std::move(A));
    return true;
  }
  case '"': {
    std::string S;
    if (!R.string(S))
      return false;
    Out = Value(std::move(S));
    return true;
  }
  case 't':
  case 'f': {
    bool B = false;
    if (!R.boolean(B))
      return false;
    Out = Value(B);
    return true;
  }
  case 'n':
    Out = Value(nullptr);
    return R.null();
  default: {
    double D = 0;
    if (!R.number(D))
      return false;
    Out = Value(D);
    return true;
  }
  }
}

bool json::parse(std::string_view Text, Value &Out, std::string *Error) {
  Reader R(Text);
  if (!readValue(R, Out)) {
    if (Error)
      *Error = R.failed() ? R.error() : "malformed JSON";
    return false;
  }
  if (!R.atEnd()) {
    if (Error)
      *Error = "trailing characters after JSON value";
    return false;
  }
  return true;
}
