//===- tests/test_support.cpp - Unit tests for gjs_support ----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/JSON.h"
#include "support/RNG.h"
#include "support/StringInterner.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

using namespace gjs;

TEST(SourceLocationTest, OrderingAndValidity) {
  SourceLocation A(1, 5), B(2, 1), C(1, 9);
  EXPECT_TRUE(A < B);
  EXPECT_TRUE(A < C);
  EXPECT_FALSE(B < A);
  EXPECT_TRUE(A.isValid());
  EXPECT_FALSE(SourceLocation().isValid());
  EXPECT_EQ(A.str(), "1:5");
}

TEST(DiagnosticsTest, CountsErrorsOnly) {
  DiagnosticEngine D;
  D.warning(SourceLocation(1, 1), "w");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLocation(2, 2), "e");
  D.note(SourceLocation(3, 3), "n");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.diagnostics().size(), 3u);
  EXPECT_NE(D.str().find("2:2: error: e"), std::string::npos);
}

TEST(StringInternerTest, StableIdsAndRoundTrip) {
  StringInterner SI;
  Symbol A = SI.intern("cmd");
  Symbol B = SI.intern("commit");
  Symbol A2 = SI.intern("cmd");
  EXPECT_EQ(A, A2);
  EXPECT_NE(A, B);
  EXPECT_EQ(SI.str(A), "cmd");
  EXPECT_EQ(SI.str(B), "commit");
  EXPECT_EQ(SI.intern(""), 0u);
}

TEST(JSONTest, WritesScalarsAndNesting) {
  json::Object O;
  O["name"] = json::Value("graph.js");
  O["count"] = json::Value(42);
  O["nested"] = json::Value(json::Array{json::Value(true), json::Value(nullptr)});
  json::Value V(std::move(O));
  EXPECT_EQ(V.str(),
            "{\"count\":42,\"name\":\"graph.js\",\"nested\":[true,null]}");
}

TEST(JSONTest, EscapesControlCharacters) {
  json::Value V(std::string("a\"b\\c\nd"));
  EXPECT_EQ(V.str(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(JSONTest, ParsesRoundTrip) {
  const char *Text = R"({"sinks": [{"name": "exec", "args": [0]}], "n": 1.5})";
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::parse(Text, V, &Error)) << Error;
  ASSERT_TRUE(V.isObject());
  const json::Value &Sinks = V.asObject().at("sinks");
  ASSERT_TRUE(Sinks.isArray());
  EXPECT_EQ(Sinks.asArray()[0].asObject().at("name").asString(), "exec");
  EXPECT_DOUBLE_EQ(V.asObject().at("n").asNumber(), 1.5);
}

TEST(JSONTest, RejectsMalformedInput) {
  json::Value V;
  std::string Error;
  EXPECT_FALSE(json::parse("{\"a\": }", V, &Error));
  EXPECT_FALSE(json::parse("[1, 2", V, &Error));
  EXPECT_FALSE(json::parse("42 43", V, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(JSONTest, ParsesStringEscapes) {
  json::Value V;
  ASSERT_TRUE(json::parse(R"("a\nbA")", V));
  EXPECT_EQ(V.asString(), "a\nbA");
}

TEST(JSONTest, MalformedNumbersFailInsteadOfThrowing) {
  // Each of these once escaped parse() as a std::stod exception.
  for (const char *Text : {"-", "1e999", "-1e999", "[1, -]", "{\"x\": 1e999}",
                           "1e", "1e+", "-e5", "--1"}) {
    json::Value V;
    std::string Error;
    bool Ok = true;
    EXPECT_NO_THROW(Ok = json::parse(Text, V, &Error)) << Text;
    EXPECT_FALSE(Ok) << Text;
    EXPECT_FALSE(Error.empty()) << Text;
  }
  json::Value V;
  ASSERT_TRUE(json::parse(
      "[-0, 1e15, 0.1, 0.000123, -2.5e-3, 18446744073709551615]", V));
  const json::Array &A = V.asArray();
  EXPECT_TRUE(std::signbit(A[0].asNumber()));
  EXPECT_EQ(A[1].asNumber(), 1e15);
  EXPECT_EQ(A[2].asNumber(), 0.1);
  EXPECT_EQ(A[3].asNumber(), 0.000123);
  EXPECT_EQ(A[4].asNumber(), -2.5e-3);
  EXPECT_EQ(A[5].asNumber(), 18446744073709551615.0);
}

TEST(JSONTest, NumbersPrintAsPrintfPrintedThem) {
  // Integral values below 1e15 print like "%.0f", everything else like
  // "%.17g": the journal's bytes depend on it.
  EXPECT_EQ(json::Value(-0.0).str(), "-0");
  EXPECT_EQ(json::Value(0.0).str(), "0");
  EXPECT_EQ(json::Value(42).str(), "42");
  EXPECT_EQ(json::Value(-7).str(), "-7");
  EXPECT_EQ(json::Value(999999999999999.0).str(), "999999999999999");
  EXPECT_EQ(json::Value(1e15).str(), "1000000000000000");
  EXPECT_EQ(json::Value(1e300).str(), "1.0000000000000001e+300");
  EXPECT_EQ(json::Value(0.1).str(), "0.10000000000000001");
  EXPECT_EQ(json::Value(0.000123).str(), "0.00012300000000000001");
  EXPECT_EQ(json::Value(1e-7).str(), "9.9999999999999995e-08");
  EXPECT_EQ(json::Value(2.5).str(), "2.5");

  auto printfNumber = [](double D) {
    char Buf[64];
    if (D == std::floor(D) && std::abs(D) < 1e15)
      std::snprintf(Buf, sizeof(Buf), "%.0f", D);
    else
      std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    return std::string(Buf);
  };
  RNG R(77);
  for (int I = 0; I < 20000; ++I) {
    double Mantissa = static_cast<double>(R.next() % 1000000007) / 1000.0;
    int Exp = static_cast<int>(R.next() % 60) - 30;
    double D = std::ldexp(Mantissa, Exp) * (I % 2 ? -1 : 1);
    ASSERT_EQ(json::Value(D).str(), printfNumber(D)) << D;
  }
}

TEST(JSONTest, StringsWithEscapesRoundTripInBulk) {
  std::string S = "plain run, then \"quotes\", \\ backslash, \n\t\r and ";
  S += '\x01';
  S += '\x1f';
  S += " control, then a long tail without escapes";
  std::string Text = json::Value(S).str();
  EXPECT_NE(Text.find("\\u0001"), std::string::npos) << Text;
  EXPECT_NE(Text.find("\\u001f"), std::string::npos) << Text;
  json::Value V;
  ASSERT_TRUE(json::parse(Text, V));
  EXPECT_EQ(V.asString(), S);
  EXPECT_FALSE(json::parse("\"unterminated", V));
  EXPECT_FALSE(json::parse("\"dangling \\", V));
}

TEST(RNGTest, DeterministicAcrossInstances) {
  RNG A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNGTest, BoundsRespected) {
  RNG R(7);
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.below(10);
    EXPECT_LT(V, 10u);
    int64_t W = R.range(-5, 5);
    EXPECT_GE(W, -5);
    EXPECT_LE(W, 5);
    double U = R.unit();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(RNGTest, PickCoversAllElements) {
  RNG R(99);
  std::vector<int> Items = {1, 2, 3};
  bool Seen[4] = {false, false, false, false};
  for (int I = 0; I < 200; ++I)
    Seen[R.pick(Items)] = true;
  EXPECT_TRUE(Seen[1] && Seen[2] && Seen[3]);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter T({"CWE", "TP"});
  T.addRow({"CWE-78", "160"});
  T.addRow({"CWE-1321", "126"});
  std::string S = T.str();
  EXPECT_NE(S.find("| CWE      | TP  |"), std::string::npos);
  EXPECT_NE(S.find("| CWE-78   | 160 |"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::fmt(1.234, 2), "1.23");
  EXPECT_EQ(TablePrinter::fmtRatio(1.63), "1.63x");
  EXPECT_EQ(TablePrinter::fmtPercent(0.821), "82.1%");
}
