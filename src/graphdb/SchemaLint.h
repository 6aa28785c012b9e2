//===- graphdb/SchemaLint.h - MDG store schema + query linting ---*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-readable schema of an MDG opened as a graph-DB store
/// (`PropertyGraph(const mdg::Graph &, const StringInterner &)`), and a
/// static linter that checks parsed queries against it.
///
/// A query with a typo'd edge type or property key is syntactically valid
/// and silently matches zero paths — for a vulnerability scanner, that is
/// the worst possible failure mode (it reports "no vulnerabilities"). The
/// linter turns those typos into diagnostics: unknown node labels, unknown
/// relationship types, property keys the store never carries,
/// unsatisfiable hop bounds, unused MATCH bindings, and RETURN/WHERE items
/// referencing unbound variables.
///
/// The schema table in docs/QUERY_LANGUAGE.md is the human-readable view
/// of `mdgSchema()`; the store and the schema are kept in sync by
/// `MDGImportTest.SchemaRoundTrip` (tests/test_graphdb.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef GJS_GRAPHDB_SCHEMALINT_H
#define GJS_GRAPHDB_SCHEMALINT_H

#include "graphdb/Query.h"
#include "support/Diagnostics.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace gjs {
namespace graphdb {

/// A property-graph schema: which node labels and relationship types
/// exist, and which property keys each carries.
struct GraphSchema {
  /// Node label -> property keys emitted for nodes of that label.
  std::map<std::string, std::set<std::string>> NodeProps;
  /// Relationship type -> property keys emitted for rels of that type.
  std::map<std::string, std::set<std::string>> RelProps;

  bool hasNodeLabel(const std::string &Label) const {
    return NodeProps.count(Label) != 0;
  }
  bool hasRelType(const std::string &Type) const {
    return RelProps.count(Type) != 0;
  }
  /// True when some node label (any, or \p Label when nonempty) emits
  /// property \p Key.
  bool nodeHasProp(const std::string &Label, const std::string &Key) const;
  /// True when some relationship type in \p Types (all types when empty)
  /// emits property \p Key.
  bool relHasProp(const std::vector<std::string> &Types,
                  const std::string &Key) const;
};

/// The schema of an opened MDG (graphdb/PropertyGraph.h). This is the single
/// machine-readable description every query — built-in or ad-hoc — is
/// linted against.
const GraphSchema &mdgSchema();

/// One schema-lint issue. Reuses the diagnostic severity scale; `Code`
/// is a stable check identifier like "query.unknown-rel-type".
struct SchemaIssue {
  DiagSeverity Severity = DiagSeverity::Error;
  std::string Code;
  std::string Message;

  std::string str() const;
};

/// Lints a parsed query against \p Schema. Returns all issues found
/// (empty = clean). Error-severity issues mean the query can never match
/// anything the store holds (or references variables it never binds).
std::vector<SchemaIssue> lintQuery(const Query &Q, const GraphSchema &Schema);

/// Parses and lints query text in one step. A parse failure is reported
/// as a single error-severity issue with code "query.parse-error".
std::vector<SchemaIssue> lintQueryText(const std::string &Text,
                                       const GraphSchema &Schema);

/// True when \p Issues contains an error-severity issue.
bool hasSchemaError(const std::vector<SchemaIssue> &Issues);

} // namespace graphdb
} // namespace gjs

#endif // GJS_GRAPHDB_SCHEMALINT_H
