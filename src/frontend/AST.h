//===- frontend/AST.h - JavaScript abstract syntax tree ---------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JavaScript AST produced by the parser. The hierarchy uses LLVM-style
/// kind discriminators (no C++ RTTI). Nodes own their children via
/// std::unique_ptr; a Program owns the whole tree.
///
/// The node set mirrors the ESTree shapes Esprima produces for the language
/// subset that Graph.js's normalizer consumes (§4 "parsing and transpiling
/// JavaScript programs to the core JavaScript").
///
//===----------------------------------------------------------------------===//

#ifndef GJS_FRONTEND_AST_H
#define GJS_FRONTEND_AST_H

#include "support/SourceLocation.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace gjs {
namespace ast {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

class Expr {
public:
  enum class Kind {
    Number,
    String,
    Boolean,
    Null,
    Undefined,
    RegExp,
    Identifier,
    This,
    Array,
    Object,
    Function,
    Arrow,
    Class,
    Unary,
    Update,
    Binary,
    Logical,
    Assignment,
    Conditional,
    Call,
    New,
    Member,
    Sequence,
    Template,
    TaggedTemplate,
    Spread,
    Yield,
    Await,
  };

  virtual ~Expr() = default;

  Kind kind() const { return TheKind; }
  SourceLocation loc() const { return Loc; }

protected:
  Expr(Kind K, SourceLocation Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLocation Loc;
};

using ExprPtr = std::unique_ptr<Expr>;

/// LLVM-style checked downcasts for AST expressions.
template <typename T> bool isa(const Expr *E) { return T::classof(E); }
template <typename T> T *cast(Expr *E) {
  assert(E && T::classof(E) && "invalid expr cast");
  return static_cast<T *>(E);
}
template <typename T> const T *cast(const Expr *E) {
  assert(E && T::classof(E) && "invalid expr cast");
  return static_cast<const T *>(E);
}
template <typename T> T *dyn_cast(Expr *E) {
  return E && T::classof(E) ? static_cast<T *>(E) : nullptr;
}
template <typename T> const T *dyn_cast(const Expr *E) {
  return E && T::classof(E) ? static_cast<const T *>(E) : nullptr;
}

class NumberLiteral : public Expr {
public:
  double Value;
  NumberLiteral(double Value, SourceLocation Loc)
      : Expr(Kind::Number, Loc), Value(Value) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Number; }
};

class StringLiteral : public Expr {
public:
  std::string Value;
  StringLiteral(std::string Value, SourceLocation Loc)
      : Expr(Kind::String, Loc), Value(std::move(Value)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::String; }
};

class BooleanLiteral : public Expr {
public:
  bool Value;
  BooleanLiteral(bool Value, SourceLocation Loc)
      : Expr(Kind::Boolean, Loc), Value(Value) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Boolean; }
};

class NullLiteral : public Expr {
public:
  explicit NullLiteral(SourceLocation Loc) : Expr(Kind::Null, Loc) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Null; }
};

class UndefinedLiteral : public Expr {
public:
  explicit UndefinedLiteral(SourceLocation Loc) : Expr(Kind::Undefined, Loc) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Undefined; }
};

class RegExpLiteral : public Expr {
public:
  std::string Raw;
  RegExpLiteral(std::string Raw, SourceLocation Loc)
      : Expr(Kind::RegExp, Loc), Raw(std::move(Raw)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::RegExp; }
};

class Identifier : public Expr {
public:
  std::string Name;
  Identifier(std::string Name, SourceLocation Loc)
      : Expr(Kind::Identifier, Loc), Name(std::move(Name)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Identifier; }
};

class ThisExpr : public Expr {
public:
  explicit ThisExpr(SourceLocation Loc) : Expr(Kind::This, Loc) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::This; }
};

class ArrayLiteral : public Expr {
public:
  std::vector<ExprPtr> Elements; // Null entries denote holes.
  ArrayLiteral(std::vector<ExprPtr> Elements, SourceLocation Loc)
      : Expr(Kind::Array, Loc), Elements(std::move(Elements)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Array; }
};

/// One property in an object literal: `key: value`, `[expr]: value`,
/// shorthand `name`, or method `name() {}` (the method's FunctionExpr is the
/// value).
struct ObjectProperty {
  /// Static key name; empty when Computed.
  std::string Name;
  /// Key expression for computed keys `[e]`.
  ExprPtr KeyExpr;
  ExprPtr Value;
  bool Computed = false;
  SourceLocation Loc;
};

class ObjectLiteral : public Expr {
public:
  std::vector<ObjectProperty> Properties;
  ObjectLiteral(std::vector<ObjectProperty> Properties, SourceLocation Loc)
      : Expr(Kind::Object, Loc), Properties(std::move(Properties)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Object; }
};

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// A function parameter. Destructuring parameters are represented by an
/// empty Name plus a Pattern expression (object/array literal shape).
struct Param {
  std::string Name;
  ExprPtr Default; // Optional default value.
  bool Rest = false;
  SourceLocation Loc;
};

class FunctionExpr : public Expr {
public:
  std::string Name; // Empty for anonymous functions.
  std::vector<Param> Params;
  StmtPtr Body; // A BlockStatement.
  bool IsAsync = false;
  bool IsGenerator = false;
  FunctionExpr(std::string Name, std::vector<Param> Params, StmtPtr Body,
               SourceLocation Loc)
      : Expr(Kind::Function, Loc), Name(std::move(Name)),
        Params(std::move(Params)), Body(std::move(Body)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Function; }
};

class ArrowFunctionExpr : public Expr {
public:
  std::vector<Param> Params;
  /// Either a BlockStatement body or an expression body (exactly one set).
  StmtPtr Body;
  ExprPtr ExprBody;
  bool IsAsync = false;
  ArrowFunctionExpr(std::vector<Param> Params, StmtPtr Body, ExprPtr ExprBody,
                    SourceLocation Loc)
      : Expr(Kind::Arrow, Loc), Params(std::move(Params)),
        Body(std::move(Body)), ExprBody(std::move(ExprBody)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Arrow; }
};

/// One member of a class body (we model methods only; fields are lowered to
/// constructor assignments by the parser).
struct ClassMember {
  std::string Name;
  ExprPtr Value; // A FunctionExpr.
  bool IsStatic = false;
  bool IsConstructor = false;
  SourceLocation Loc;
};

class ClassExpr : public Expr {
public:
  std::string Name;
  ExprPtr SuperClass; // May be null.
  std::vector<ClassMember> Members;
  ClassExpr(std::string Name, ExprPtr SuperClass,
            std::vector<ClassMember> Members, SourceLocation Loc)
      : Expr(Kind::Class, Loc), Name(std::move(Name)),
        SuperClass(std::move(SuperClass)), Members(std::move(Members)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Class; }
};

enum class UnaryOperator { Minus, Plus, Not, BitNot, TypeOf, Void, Delete };

class UnaryExpr : public Expr {
public:
  UnaryOperator Op;
  ExprPtr Operand;
  UnaryExpr(UnaryOperator Op, ExprPtr Operand, SourceLocation Loc)
      : Expr(Kind::Unary, Loc), Op(Op), Operand(std::move(Operand)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Unary; }
};

class UpdateExpr : public Expr {
public:
  bool IsIncrement;
  bool IsPrefix;
  ExprPtr Operand;
  UpdateExpr(bool IsIncrement, bool IsPrefix, ExprPtr Operand,
             SourceLocation Loc)
      : Expr(Kind::Update, Loc), IsIncrement(IsIncrement), IsPrefix(IsPrefix),
        Operand(std::move(Operand)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Update; }
};

enum class BinaryOperator {
  Add, Sub, Mul, Div, Mod, Pow,
  Equal, NotEqual, StrictEqual, StrictNotEqual,
  Less, Greater, LessEqual, GreaterEqual,
  LShift, RShift, URShift, BitAnd, BitOr, BitXor,
  In, InstanceOf,
};

class BinaryExpr : public Expr {
public:
  BinaryOperator Op;
  ExprPtr LHS, RHS;
  BinaryExpr(BinaryOperator Op, ExprPtr LHS, ExprPtr RHS, SourceLocation Loc)
      : Expr(Kind::Binary, Loc), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }
};

enum class LogicalOperator { And, Or, NullishCoalesce };

class LogicalExpr : public Expr {
public:
  LogicalOperator Op;
  ExprPtr LHS, RHS;
  LogicalExpr(LogicalOperator Op, ExprPtr LHS, ExprPtr RHS, SourceLocation Loc)
      : Expr(Kind::Logical, Loc), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Logical; }
};

/// `=` plus the compound forms; compound assignments carry the underlying
/// binary operator in CompoundOp.
class AssignmentExpr : public Expr {
public:
  ExprPtr Target; // Identifier or MemberExpr (patterns are desugared).
  ExprPtr Value;
  bool IsCompound = false;
  BinaryOperator CompoundOp = BinaryOperator::Add;
  /// Logical assignment forms (&&=, ||=, ??=) set IsLogical.
  bool IsLogical = false;
  LogicalOperator LogicalOp = LogicalOperator::And;
  AssignmentExpr(ExprPtr Target, ExprPtr Value, SourceLocation Loc)
      : Expr(Kind::Assignment, Loc), Target(std::move(Target)),
        Value(std::move(Value)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Assignment; }
};

class ConditionalExpr : public Expr {
public:
  ExprPtr Cond, Then, Else;
  ConditionalExpr(ExprPtr Cond, ExprPtr Then, ExprPtr Else, SourceLocation Loc)
      : Expr(Kind::Conditional, Loc), Cond(std::move(Cond)),
        Then(std::move(Then)), Else(std::move(Else)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Conditional; }
};

class CallExpr : public Expr {
public:
  ExprPtr Callee;
  std::vector<ExprPtr> Arguments;
  bool Optional = false; // `f?.()`
  CallExpr(ExprPtr Callee, std::vector<ExprPtr> Arguments, SourceLocation Loc)
      : Expr(Kind::Call, Loc), Callee(std::move(Callee)),
        Arguments(std::move(Arguments)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Call; }
};

class NewExpr : public Expr {
public:
  ExprPtr Callee;
  std::vector<ExprPtr> Arguments;
  NewExpr(ExprPtr Callee, std::vector<ExprPtr> Arguments, SourceLocation Loc)
      : Expr(Kind::New, Loc), Callee(std::move(Callee)),
        Arguments(std::move(Arguments)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::New; }
};

class MemberExpr : public Expr {
public:
  ExprPtr Object;
  /// Static property name (when !Computed) or index expression.
  std::string Name;
  ExprPtr Index;
  bool Computed;
  bool Optional = false; // `o?.p`
  MemberExpr(ExprPtr Object, std::string Name, SourceLocation Loc)
      : Expr(Kind::Member, Loc), Object(std::move(Object)),
        Name(std::move(Name)), Computed(false) {}
  MemberExpr(ExprPtr Object, ExprPtr Index, SourceLocation Loc)
      : Expr(Kind::Member, Loc), Object(std::move(Object)),
        Index(std::move(Index)), Computed(true) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Member; }
};

class SequenceExpr : public Expr {
public:
  std::vector<ExprPtr> Expressions;
  SequenceExpr(std::vector<ExprPtr> Expressions, SourceLocation Loc)
      : Expr(Kind::Sequence, Loc), Expressions(std::move(Expressions)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Sequence; }
};

/// `a${x}b${y}c` — Quasis has one more element than Substitutions.
class TemplateLiteral : public Expr {
public:
  std::vector<std::string> Quasis;
  std::vector<ExprPtr> Substitutions;
  TemplateLiteral(std::vector<std::string> Quasis,
                  std::vector<ExprPtr> Substitutions, SourceLocation Loc)
      : Expr(Kind::Template, Loc), Quasis(std::move(Quasis)),
        Substitutions(std::move(Substitutions)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Template; }
};

class TaggedTemplateExpr : public Expr {
public:
  ExprPtr Tag;
  ExprPtr Quasi; // A TemplateLiteral.
  TaggedTemplateExpr(ExprPtr Tag, ExprPtr Quasi, SourceLocation Loc)
      : Expr(Kind::TaggedTemplate, Loc), Tag(std::move(Tag)),
        Quasi(std::move(Quasi)) {}
  static bool classof(const Expr *E) {
    return E->kind() == Kind::TaggedTemplate;
  }
};

class SpreadElement : public Expr {
public:
  ExprPtr Argument;
  SpreadElement(ExprPtr Argument, SourceLocation Loc)
      : Expr(Kind::Spread, Loc), Argument(std::move(Argument)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Spread; }
};

class YieldExpr : public Expr {
public:
  ExprPtr Argument; // May be null.
  bool Delegate = false;
  YieldExpr(ExprPtr Argument, bool Delegate, SourceLocation Loc)
      : Expr(Kind::Yield, Loc), Argument(std::move(Argument)),
        Delegate(Delegate) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Yield; }
};

class AwaitExpr : public Expr {
public:
  ExprPtr Argument;
  AwaitExpr(ExprPtr Argument, SourceLocation Loc)
      : Expr(Kind::Await, Loc), Argument(std::move(Argument)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Await; }
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt {
public:
  enum class Kind {
    Program,
    Block,
    VarDecl,
    Empty,
    ExprStmt,
    If,
    While,
    DoWhile,
    For,
    ForIn,
    ForOf,
    Return,
    Break,
    Continue,
    FunctionDecl,
    ClassDecl,
    Throw,
    Try,
    Switch,
    Labeled,
    Debugger,
  };

  virtual ~Stmt() = default;
  Kind kind() const { return TheKind; }
  SourceLocation loc() const { return Loc; }

protected:
  Stmt(Kind K, SourceLocation Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLocation Loc;
};

template <typename T> bool isa(const Stmt *S) { return T::classof(S); }
template <typename T> T *cast(Stmt *S) {
  assert(S && T::classof(S) && "invalid stmt cast");
  return static_cast<T *>(S);
}
template <typename T> const T *cast(const Stmt *S) {
  assert(S && T::classof(S) && "invalid stmt cast");
  return static_cast<const T *>(S);
}
template <typename T> T *dyn_cast(Stmt *S) {
  return S && T::classof(S) ? static_cast<T *>(S) : nullptr;
}
template <typename T> const T *dyn_cast(const Stmt *S) {
  return S && T::classof(S) ? static_cast<const T *>(S) : nullptr;
}

class Program : public Stmt {
public:
  std::vector<StmtPtr> Body;
  explicit Program(std::vector<StmtPtr> Body)
      : Stmt(Kind::Program, SourceLocation(1, 1)), Body(std::move(Body)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Program; }
};

class BlockStatement : public Stmt {
public:
  std::vector<StmtPtr> Body;
  BlockStatement(std::vector<StmtPtr> Body, SourceLocation Loc)
      : Stmt(Kind::Block, Loc), Body(std::move(Body)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Block; }
};

enum class VarDeclKind { Var, Let, Const };

/// One `name = init` declarator. Destructuring declarators keep the pattern
/// in Pattern with an empty Name; the normalizer desugars them.
struct VarDeclarator {
  std::string Name;
  ExprPtr Pattern; // Object/array literal shape when destructuring.
  ExprPtr Init;    // May be null.
  SourceLocation Loc;
};

class VariableDeclaration : public Stmt {
public:
  VarDeclKind DeclKind;
  std::vector<VarDeclarator> Declarators;
  VariableDeclaration(VarDeclKind DeclKind,
                      std::vector<VarDeclarator> Declarators,
                      SourceLocation Loc)
      : Stmt(Kind::VarDecl, Loc), DeclKind(DeclKind),
        Declarators(std::move(Declarators)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::VarDecl; }
};

class EmptyStatement : public Stmt {
public:
  explicit EmptyStatement(SourceLocation Loc) : Stmt(Kind::Empty, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Empty; }
};

class ExpressionStatement : public Stmt {
public:
  ExprPtr Expression;
  ExpressionStatement(ExprPtr Expression, SourceLocation Loc)
      : Stmt(Kind::ExprStmt, Loc), Expression(std::move(Expression)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::ExprStmt; }
};

class IfStatement : public Stmt {
public:
  ExprPtr Cond;
  StmtPtr Then;
  StmtPtr Else; // May be null.
  IfStatement(ExprPtr Cond, StmtPtr Then, StmtPtr Else, SourceLocation Loc)
      : Stmt(Kind::If, Loc), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }
};

class WhileStatement : public Stmt {
public:
  ExprPtr Cond;
  StmtPtr Body;
  WhileStatement(ExprPtr Cond, StmtPtr Body, SourceLocation Loc)
      : Stmt(Kind::While, Loc), Cond(std::move(Cond)), Body(std::move(Body)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::While; }
};

class DoWhileStatement : public Stmt {
public:
  StmtPtr Body;
  ExprPtr Cond;
  DoWhileStatement(StmtPtr Body, ExprPtr Cond, SourceLocation Loc)
      : Stmt(Kind::DoWhile, Loc), Body(std::move(Body)),
        Cond(std::move(Cond)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::DoWhile; }
};

class ForStatement : public Stmt {
public:
  StmtPtr Init; // VariableDeclaration or ExpressionStatement; may be null.
  ExprPtr Cond; // May be null.
  ExprPtr Update; // May be null.
  StmtPtr Body;
  ForStatement(StmtPtr Init, ExprPtr Cond, ExprPtr Update, StmtPtr Body,
               SourceLocation Loc)
      : Stmt(Kind::For, Loc), Init(std::move(Init)), Cond(std::move(Cond)),
        Update(std::move(Update)), Body(std::move(Body)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::For; }
};

/// Shared shape for `for (x in o)` and `for (x of o)`.
class ForInOfStatement : public Stmt {
public:
  std::string Variable; // Loop variable name; empty for pattern heads.
  ExprPtr Pattern;      // Destructuring head, e.g. `for (const [k,v] of m)`.
  bool Declares;        // True when the head has var/let/const.
  ExprPtr Object;
  StmtPtr Body;
  ForInOfStatement(Kind K, std::string Variable, bool Declares, ExprPtr Object,
                   StmtPtr Body, SourceLocation Loc)
      : Stmt(K, Loc), Variable(std::move(Variable)), Declares(Declares),
        Object(std::move(Object)), Body(std::move(Body)) {
    assert(K == Kind::ForIn || K == Kind::ForOf);
  }
  static bool classof(const Stmt *S) {
    return S->kind() == Kind::ForIn || S->kind() == Kind::ForOf;
  }
};

class ReturnStatement : public Stmt {
public:
  ExprPtr Argument; // May be null.
  ReturnStatement(ExprPtr Argument, SourceLocation Loc)
      : Stmt(Kind::Return, Loc), Argument(std::move(Argument)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Return; }
};

class BreakStatement : public Stmt {
public:
  std::string Label;
  BreakStatement(std::string Label, SourceLocation Loc)
      : Stmt(Kind::Break, Loc), Label(std::move(Label)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Break; }
};

class ContinueStatement : public Stmt {
public:
  std::string Label;
  ContinueStatement(std::string Label, SourceLocation Loc)
      : Stmt(Kind::Continue, Loc), Label(std::move(Label)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Continue; }
};

class FunctionDeclaration : public Stmt {
public:
  ExprPtr Function; // A FunctionExpr with a name.
  FunctionDeclaration(ExprPtr Function, SourceLocation Loc)
      : Stmt(Kind::FunctionDecl, Loc), Function(std::move(Function)) {}
  static bool classof(const Stmt *S) {
    return S->kind() == Kind::FunctionDecl;
  }
};

class ClassDeclaration : public Stmt {
public:
  ExprPtr Class; // A ClassExpr with a name.
  ClassDeclaration(ExprPtr Class, SourceLocation Loc)
      : Stmt(Kind::ClassDecl, Loc), Class(std::move(Class)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::ClassDecl; }
};

class ThrowStatement : public Stmt {
public:
  ExprPtr Argument;
  ThrowStatement(ExprPtr Argument, SourceLocation Loc)
      : Stmt(Kind::Throw, Loc), Argument(std::move(Argument)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Throw; }
};

class TryStatement : public Stmt {
public:
  StmtPtr Block;
  std::string CatchParam; // Empty when no binding.
  StmtPtr Handler;        // May be null.
  StmtPtr Finalizer;      // May be null.
  TryStatement(StmtPtr Block, std::string CatchParam, StmtPtr Handler,
               StmtPtr Finalizer, SourceLocation Loc)
      : Stmt(Kind::Try, Loc), Block(std::move(Block)),
        CatchParam(std::move(CatchParam)), Handler(std::move(Handler)),
        Finalizer(std::move(Finalizer)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Try; }
};

struct SwitchCase {
  ExprPtr Test; // Null for `default:`.
  std::vector<StmtPtr> Body;
  SourceLocation Loc;
};

class SwitchStatement : public Stmt {
public:
  ExprPtr Discriminant;
  std::vector<SwitchCase> Cases;
  SwitchStatement(ExprPtr Discriminant, std::vector<SwitchCase> Cases,
                  SourceLocation Loc)
      : Stmt(Kind::Switch, Loc), Discriminant(std::move(Discriminant)),
        Cases(std::move(Cases)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Switch; }
};

class LabeledStatement : public Stmt {
public:
  std::string Label;
  StmtPtr Body;
  LabeledStatement(std::string Label, StmtPtr Body, SourceLocation Loc)
      : Stmt(Kind::Labeled, Loc), Label(std::move(Label)),
        Body(std::move(Body)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Labeled; }
};

class DebuggerStatement : public Stmt {
public:
  explicit DebuggerStatement(SourceLocation Loc) : Stmt(Kind::Debugger, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Debugger; }
};

/// Pretty-prints an AST as an indented S-expression-like dump (tests).
std::string dump(const Stmt &S);
std::string dump(const Expr &E);

/// Counts AST nodes (used for CPG-size accounting in Table 7): the number
/// of lines dump(S) prints, counted by a walk that builds no strings.
size_t countNodes(const Stmt &S);

} // namespace ast
} // namespace gjs

#endif // GJS_FRONTEND_AST_H
