#include "parser/parser.h"

#include <string>
#include <vector>

#include "parser/lexer.h"

namespace afp {

namespace {

/// Recursive-descent parser pulling tokens one at a time from the Lexer and
/// interning straight into `program`. A lexical error anywhere in the text
/// takes precedence over a parse error, as if the text were lexed up front.
class ParserImpl {
 public:
  ParserImpl(std::string_view text, Program* program)
      : lex_(text), program_(program),
        const_base_(static_cast<SymbolId>(program->symbols().size())) {
    Advance();
  }

  Status ParseRules() {
    while (cur_.kind != TokenKind::kEof) AFP_RETURN_IF_ERROR(ParseRule());
    return Status::Ok();
  }

  /// Parses exactly one atom, optionally followed by '.'.
  Status ParseSingleAtom(Atom& atom) {
    AFP_RETURN_IF_ERROR(ParseAtom(atom));
    const Token after = cur_;
    if (At(TokenKind::kDot)) Advance();
    if (!At(TokenKind::kEof)) return ErrorAt(after, "expected a single atom");
    return Status::Ok();
  }

 private:
  void Advance() { cur_ = lex_.Next(); }
  bool At(TokenKind k) const { return cur_.kind == k; }

  Status ErrorAt(const Token& tok, const std::string& msg) {
    if (const Status& lex = lex_.Drain(); !lex.ok()) return lex;
    std::string got = ", got '" + std::string(tok.text) + "'";
    if (tok.kind == TokenKind::kEof) got = " (at end of input)";
    return Status::InvalidArgument(
        "parse error at " + lex_.Position(tok.offset) + ": " + msg + got);
  }

  Status Expect(TokenKind k, const char* what) {
    if (!At(k)) return ErrorAt(cur_, std::string("expected ") + what);
    Advance();
    return Status::Ok();
  }

  Status ParseRule() {
    // Integrity constraint ":- body." — sugar for the standard encoding
    //   __bot :- body, not __bot.
    // whose odd loop eliminates every stable model satisfying the body and
    // marks __bot undefined in the well-founded model when the body can
    // hold. __bot is interned after the body.
    const bool constraint = At(TokenKind::kIf);
    Atom head;
    if (!constraint) AFP_RETURN_IF_ERROR(ParseAtom(head));
    std::vector<Literal> body;
    if (At(TokenKind::kIf)) {
      do {
        Advance();  // ":-" or ','
        Literal& lit = body.emplace_back();
        if (At(TokenKind::kNot)) {
          lit.positive = false;
          Advance();
        }
        AFP_RETURN_IF_ERROR(ParseAtom(lit.atom));
      } while (At(TokenKind::kComma));
    }
    AFP_RETURN_IF_ERROR(Expect(TokenKind::kDot, "'.'"));
    if (constraint) {
      head = program_->MakeAtom(kConstraintAtomName);
      body.push_back(Literal{head, false});
    }
    program_->AddRule(std::move(head), std::move(body));
    return Status::Ok();
  }

  Status ParseAtom(Atom& atom) {
    if (!At(TokenKind::kIdent)) {
      return ErrorAt(cur_, "expected a predicate name");
    }
    atom.predicate = program_->Symbol(cur_.text);
    Advance();
    if (!At(TokenKind::kLParen)) return Status::Ok();
    const std::size_t mark = args_.size();
    AFP_RETURN_IF_ERROR(ParseArgs(0));
    atom.args.assign(args_.begin() + mark, args_.end());
    args_.resize(mark);
    return Status::Ok();
  }

  /// Parses "( t1, ..., tn )", the arguments `nesting` compounds deep,
  /// pushing their term ids onto args_.
  Status ParseArgs(std::uint32_t nesting) {
    do {
      Advance();  // '(' or ','
      AFP_RETURN_IF_ERROR(ParseTerm(nesting));
    } while (At(TokenKind::kComma));
    return Expect(TokenKind::kRParen, "')'");
  }

  /// Parses one term and pushes its id onto args_.
  Status ParseTerm(std::uint32_t nesting) {
    const Token tok = cur_;
    if (tok.kind != TokenKind::kVariable && tok.kind != TokenKind::kInteger &&
        tok.kind != TokenKind::kIdent) {
      return ErrorAt(tok, "expected a term");
    }
    Advance();
    if (tok.kind == TokenKind::kVariable) {
      args_.push_back(program_->Var(tok.text));
    } else if (tok.kind == TokenKind::kInteger || !At(TokenKind::kLParen)) {
      args_.push_back(Const(tok.text));
    } else {
      if (nesting == kMaxTermNesting) {
        return ErrorAt(tok, "term nested deeper than " +
                                std::to_string(kMaxTermNesting) + " levels");
      }
      const std::size_t mark = args_.size();
      AFP_RETURN_IF_ERROR(ParseArgs(nesting + 1));
      // The functor is interned after its arguments.
      const TermId t = program_->terms().MakeCompound(
          program_->Symbol(tok.text),
          std::span<const TermId>(args_.data() + mark, args_.size() - mark));
      args_.resize(mark);
      args_.push_back(t);
    }
    return Status::Ok();
  }

  /// Program::Const through a SymbolId -> TermId cache, so a repeated
  /// constant skips the term table's hash. Symbols interned before this
  /// parse began (a session append) bypass the cache.
  TermId Const(std::string_view name) {
    const SymbolId s = program_->Symbol(name);
    if (s < const_base_) return program_->terms().MakeConstant(s);
    const std::size_t i = s - const_base_;
    if (i >= const_cache_.size()) const_cache_.resize(i + 1, kInvalidTerm);
    TermId& t = const_cache_[i];
    if (t == kInvalidTerm) t = program_->terms().MakeConstant(s);
    return t;
  }

  Lexer lex_;
  Token cur_;
  Program* program_;
  std::vector<TermId> args_;  // argument stack of the terms being parsed
  SymbolId const_base_;
  std::vector<TermId> const_cache_;
};

}  // namespace

StatusOr<Program> Parser::Parse(std::string_view text) {
  Program program;
  AFP_RETURN_IF_ERROR(ParserImpl(text, &program).ParseRules());
  AFP_RETURN_IF_ERROR(program.Validate());
  return program;
}

StatusOr<Program> Parser::ParseAtomPattern(std::string_view text) {
  Program program;
  Atom atom;
  AFP_RETURN_IF_ERROR(ParserImpl(text, &program).ParseSingleAtom(atom));
  program.AddRule(std::move(atom));
  return program;
}

StatusOr<std::size_t> Parser::ParseRulesInto(Program& program,
                                             std::string_view text) {
  // A lexical error leaves the live program untouched: nothing interned.
  AFP_RETURN_IF_ERROR(Lexer(text).Drain());
  const std::size_t first = program.rules().size();
  Status st = ParserImpl(text, &program).ParseRules();
  if (st.ok()) st = program.Validate();
  if (!st.ok()) {
    program.TruncateRules(first);
    return st;
  }
  return first;
}

StatusOr<Program> ParseProgram(std::string_view text) {
  return Parser::Parse(text);
}

}  // namespace afp
