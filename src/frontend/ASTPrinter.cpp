//===- frontend/ASTPrinter.cpp - AST dumping ------------------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/AST.h"

#include <string_view>

using namespace gjs;
using namespace gjs::ast;

namespace {

/// A parameter list, rendered "a, <pattern>, c".
struct ParamNames {
  const std::vector<Param> &Params;
};

/// `Name`, or \p Fallback when it is empty.
std::string_view orElse(const std::string &Name, std::string_view Fallback) {
  return Name.empty() ? Fallback : std::string_view(Name);
}

/// Walks an AST in dump order, one line per node. With \p Print it renders
/// the indented tree (used by parser tests and debugging); without, it only
/// counts the lines and builds no strings, so countNodes costs a walk.
template <bool Print> class Walker {
public:
  std::string Out;
  size_t Count = 0;

  void stmt(const Stmt *S, int Depth) {
    if (!S) {
      line(Depth, "(null-stmt)");
      return;
    }
    switch (S->kind()) {
    case Stmt::Kind::Program: {
      line(Depth, "Program");
      for (const StmtPtr &Child : cast<Program>(S)->Body)
        stmt(Child.get(), Depth + 1);
      break;
    }
    case Stmt::Kind::Block: {
      line(Depth, "Block");
      for (const StmtPtr &Child : cast<BlockStatement>(S)->Body)
        stmt(Child.get(), Depth + 1);
      break;
    }
    case Stmt::Kind::VarDecl: {
      const auto *V = cast<VariableDeclaration>(S);
      const char *KindName = V->DeclKind == VarDeclKind::Var   ? "var"
                             : V->DeclKind == VarDeclKind::Let ? "let"
                                                               : "const";
      line(Depth, "VarDecl ", KindName);
      for (const VarDeclarator &D : V->Declarators) {
        line(Depth + 1, "Declarator ", orElse(D.Name, "<pattern>"));
        if (D.Pattern)
          expr(D.Pattern.get(), Depth + 2);
        if (D.Init)
          expr(D.Init.get(), Depth + 2);
      }
      break;
    }
    case Stmt::Kind::Empty:
      line(Depth, "Empty");
      break;
    case Stmt::Kind::ExprStmt:
      line(Depth, "ExprStmt");
      expr(cast<ExpressionStatement>(S)->Expression.get(), Depth + 1);
      break;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStatement>(S);
      line(Depth, "If");
      expr(I->Cond.get(), Depth + 1);
      stmt(I->Then.get(), Depth + 1);
      if (I->Else)
        stmt(I->Else.get(), Depth + 1);
      break;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStatement>(S);
      line(Depth, "While");
      expr(W->Cond.get(), Depth + 1);
      stmt(W->Body.get(), Depth + 1);
      break;
    }
    case Stmt::Kind::DoWhile: {
      const auto *W = cast<DoWhileStatement>(S);
      line(Depth, "DoWhile");
      stmt(W->Body.get(), Depth + 1);
      expr(W->Cond.get(), Depth + 1);
      break;
    }
    case Stmt::Kind::For: {
      const auto *F = cast<ForStatement>(S);
      line(Depth, "For");
      if (F->Init)
        stmt(F->Init.get(), Depth + 1);
      if (F->Cond)
        expr(F->Cond.get(), Depth + 1);
      if (F->Update)
        expr(F->Update.get(), Depth + 1);
      stmt(F->Body.get(), Depth + 1);
      break;
    }
    case Stmt::Kind::ForIn:
    case Stmt::Kind::ForOf: {
      const auto *F = cast<ForInOfStatement>(S);
      line(Depth, S->kind() == Stmt::Kind::ForIn ? "ForIn " : "ForOf ",
           orElse(F->Variable, "<pattern>"));
      expr(F->Object.get(), Depth + 1);
      stmt(F->Body.get(), Depth + 1);
      break;
    }
    case Stmt::Kind::Return: {
      line(Depth, "Return");
      if (const ExprPtr &A = cast<ReturnStatement>(S)->Argument)
        expr(A.get(), Depth + 1);
      break;
    }
    case Stmt::Kind::Break:
      line(Depth, "Break");
      break;
    case Stmt::Kind::Continue:
      line(Depth, "Continue");
      break;
    case Stmt::Kind::FunctionDecl:
      line(Depth, "FunctionDecl");
      expr(cast<FunctionDeclaration>(S)->Function.get(), Depth + 1);
      break;
    case Stmt::Kind::ClassDecl:
      line(Depth, "ClassDecl");
      expr(cast<ClassDeclaration>(S)->Class.get(), Depth + 1);
      break;
    case Stmt::Kind::Throw:
      line(Depth, "Throw");
      expr(cast<ThrowStatement>(S)->Argument.get(), Depth + 1);
      break;
    case Stmt::Kind::Try: {
      const auto *T = cast<TryStatement>(S);
      line(Depth, "Try");
      stmt(T->Block.get(), Depth + 1);
      if (T->Handler) {
        line(Depth + 1, "Catch ", T->CatchParam);
        stmt(T->Handler.get(), Depth + 2);
      }
      if (T->Finalizer) {
        line(Depth + 1, "Finally");
        stmt(T->Finalizer.get(), Depth + 2);
      }
      break;
    }
    case Stmt::Kind::Switch: {
      const auto *W = cast<SwitchStatement>(S);
      line(Depth, "Switch");
      expr(W->Discriminant.get(), Depth + 1);
      for (const SwitchCase &C : W->Cases) {
        line(Depth + 1, C.Test ? "Case" : "Default");
        if (C.Test)
          expr(C.Test.get(), Depth + 2);
        for (const StmtPtr &B : C.Body)
          stmt(B.get(), Depth + 2);
      }
      break;
    }
    case Stmt::Kind::Labeled: {
      const auto *L = cast<LabeledStatement>(S);
      line(Depth, "Labeled ", L->Label);
      stmt(L->Body.get(), Depth + 1);
      break;
    }
    case Stmt::Kind::Debugger:
      line(Depth, "Debugger");
      break;
    }
  }

  void expr(const Expr *E, int Depth) {
    if (!E) {
      line(Depth, "(null-expr)");
      return;
    }
    switch (E->kind()) {
    case Expr::Kind::Number:
      line(Depth, "Number ", cast<NumberLiteral>(E)->Value);
      break;
    case Expr::Kind::String:
      line(Depth, "String \"", cast<StringLiteral>(E)->Value, "\"");
      break;
    case Expr::Kind::Boolean:
      line(Depth, cast<BooleanLiteral>(E)->Value ? "Boolean true"
                                                 : "Boolean false");
      break;
    case Expr::Kind::Null:
      line(Depth, "Null");
      break;
    case Expr::Kind::Undefined:
      line(Depth, "Undefined");
      break;
    case Expr::Kind::RegExp:
      line(Depth, "RegExp ", cast<RegExpLiteral>(E)->Raw);
      break;
    case Expr::Kind::Identifier:
      line(Depth, "Identifier ", cast<Identifier>(E)->Name);
      break;
    case Expr::Kind::This:
      line(Depth, "This");
      break;
    case Expr::Kind::Array: {
      line(Depth, "Array");
      for (const ExprPtr &El : cast<ArrayLiteral>(E)->Elements)
        expr(El.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Object: {
      line(Depth, "Object");
      for (const ObjectProperty &P : cast<ObjectLiteral>(E)->Properties) {
        line(Depth + 1, "Property ",
             P.Computed ? std::string_view("<computed>") : P.Name);
        if (P.KeyExpr)
          expr(P.KeyExpr.get(), Depth + 2);
        if (P.Value)
          expr(P.Value.get(), Depth + 2);
      }
      break;
    }
    case Expr::Kind::Function: {
      const auto *F = cast<FunctionExpr>(E);
      line(Depth, "Function ", orElse(F->Name, "<anon>"), " (",
           ParamNames{F->Params}, ")");
      stmt(F->Body.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Arrow: {
      const auto *A = cast<ArrowFunctionExpr>(E);
      line(Depth, "Arrow (", ParamNames{A->Params}, ")");
      if (A->Body)
        stmt(A->Body.get(), Depth + 1);
      if (A->ExprBody)
        expr(A->ExprBody.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Class: {
      const auto *C = cast<ClassExpr>(E);
      line(Depth, "Class ", orElse(C->Name, "<anon>"));
      for (const ClassMember &M : C->Members) {
        line(Depth + 1, "Member ", M.Name, M.IsStatic ? " static" : "");
        if (M.Value)
          expr(M.Value.get(), Depth + 2);
      }
      break;
    }
    case Expr::Kind::Unary: {
      static const char *Names[] = {"-", "+", "!", "~", "typeof", "void",
                                    "delete"};
      line(Depth, "Unary ", Names[static_cast<int>(cast<UnaryExpr>(E)->Op)]);
      expr(cast<UnaryExpr>(E)->Operand.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Update: {
      const auto *U = cast<UpdateExpr>(E);
      line(Depth, "Update ", U->IsIncrement ? "++" : "--",
           U->IsPrefix ? " prefix" : " postfix");
      expr(U->Operand.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Binary: {
      static const char *Names[] = {
          "+",  "-",  "*",   "/",  "%",  "**", "==", "!=", "===", "!==", "<",
          ">",  "<=", ">=",  "<<", ">>", ">>>", "&",  "|",  "^",  "in",
          "instanceof"};
      const auto *B = cast<BinaryExpr>(E);
      line(Depth, "Binary ", Names[static_cast<int>(B->Op)]);
      expr(B->LHS.get(), Depth + 1);
      expr(B->RHS.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Logical: {
      static const char *Names[] = {"&&", "||", "??"};
      const auto *L = cast<LogicalExpr>(E);
      line(Depth, "Logical ", Names[static_cast<int>(L->Op)]);
      expr(L->LHS.get(), Depth + 1);
      expr(L->RHS.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Assignment: {
      const auto *A = cast<AssignmentExpr>(E);
      line(Depth, A->IsCompound ? "Assignment compound"
                  : A->IsLogical ? "Assignment logical"
                                 : "Assignment");
      expr(A->Target.get(), Depth + 1);
      expr(A->Value.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      line(Depth, "Conditional");
      expr(C->Cond.get(), Depth + 1);
      expr(C->Then.get(), Depth + 1);
      expr(C->Else.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(E);
      line(Depth, "Call");
      expr(C->Callee.get(), Depth + 1);
      for (const ExprPtr &A : C->Arguments)
        expr(A.get(), Depth + 1);
      break;
    }
    case Expr::Kind::New: {
      const auto *N = cast<NewExpr>(E);
      line(Depth, "New");
      expr(N->Callee.get(), Depth + 1);
      for (const ExprPtr &A : N->Arguments)
        expr(A.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Member: {
      const auto *M = cast<MemberExpr>(E);
      if (M->Computed) {
        line(Depth, "Member <computed>");
        expr(M->Object.get(), Depth + 1);
        expr(M->Index.get(), Depth + 1);
      } else {
        line(Depth, "Member .", M->Name);
        expr(M->Object.get(), Depth + 1);
      }
      break;
    }
    case Expr::Kind::Sequence: {
      line(Depth, "Sequence");
      for (const ExprPtr &P : cast<SequenceExpr>(E)->Expressions)
        expr(P.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Template: {
      const auto *T = cast<TemplateLiteral>(E);
      line(Depth, "Template");
      for (size_t I = 0; I < T->Quasis.size(); ++I) {
        line(Depth + 1, "Quasi \"", T->Quasis[I], "\"");
        if (I < T->Substitutions.size())
          expr(T->Substitutions[I].get(), Depth + 1);
      }
      break;
    }
    case Expr::Kind::TaggedTemplate: {
      const auto *T = cast<TaggedTemplateExpr>(E);
      line(Depth, "TaggedTemplate");
      expr(T->Tag.get(), Depth + 1);
      expr(T->Quasi.get(), Depth + 1);
      break;
    }
    case Expr::Kind::Spread:
      line(Depth, "Spread");
      expr(cast<SpreadElement>(E)->Argument.get(), Depth + 1);
      break;
    case Expr::Kind::Yield:
      line(Depth, "Yield");
      if (const ExprPtr &A = cast<YieldExpr>(E)->Argument)
        expr(A.get(), Depth + 1);
      break;
    case Expr::Kind::Await:
      line(Depth, "Await");
      expr(cast<AwaitExpr>(E)->Argument.get(), Depth + 1);
      break;
    }
  }

private:
  /// Emits one node's line; its text is the concatenation of \p Pieces.
  template <typename... Pieces> void line(int Depth, const Pieces &...P) {
    ++Count;
    if constexpr (Print) {
      Out.append(2 * static_cast<size_t>(Depth), ' ');
      (put(P), ...);
      Out += '\n';
    }
  }

  /// Appends text with newlines escaped, so every node stays one line.
  void put(std::string_view S) {
    for (size_t NL; (NL = S.find('\n')) != std::string_view::npos;
         S.remove_prefix(NL + 1))
      Out.append(S.substr(0, NL)).append("\\n");
    Out.append(S);
  }
  void put(double V) { Out += std::to_string(V); }
  void put(ParamNames L) {
    for (size_t I = 0; I < L.Params.size(); ++I) {
      if (I)
        Out += ", ";
      put(orElse(L.Params[I].Name, "<pattern>"));
    }
  }
};

} // namespace

std::string ast::dump(const Stmt &S) {
  Walker<true> W;
  W.stmt(&S, 0);
  return std::move(W.Out);
}

std::string ast::dump(const Expr &E) {
  Walker<true> W;
  W.expr(&E, 0);
  return std::move(W.Out);
}

size_t ast::countNodes(const Stmt &S) {
  Walker<false> W;
  W.stmt(&S, 0);
  return W.Count;
}
