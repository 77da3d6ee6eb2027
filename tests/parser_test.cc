// Lexer and parser tests: token forms, rule syntax, diagnostics with
// positions, the validation (arity + safety) run by Parse, id order and
// round trips, the nesting bound, and a byte-mutation fuzz of the corpus.

#include "parser/parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "afp/solver.h"
#include "parser/lexer.h"
#include "workload/graphs.h"
#include "workload/programs.h"

#ifndef AFP_LP_CORPUS_DIR
#error "AFP_LP_CORPUS_DIR must point at the .lp corpus directory"
#endif

namespace afp {
namespace {

// Pulls every token through kEof, or returns the lexical error.
StatusOr<std::vector<Token>> Tokenize(std::string_view text) {
  Lexer lex(text);
  std::vector<Token> toks;
  while (true) {
    const Token t = lex.Next();
    if (t.kind == TokenKind::kError) return lex.Drain();
    toks.push_back(t);
    if (t.kind == TokenKind::kEof) return toks;
  }
}

TEST(Lexer, BasicTokens) {
  auto toks = Tokenize("p(X) :- e(a,1), not q(X).");
  ASSERT_TRUE(toks.ok()) << toks.status().ToString();
  std::vector<TokenKind> kinds;
  for (const Token& t : *toks) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kIdent, TokenKind::kLParen, TokenKind::kVariable,
                TokenKind::kRParen, TokenKind::kIf, TokenKind::kIdent,
                TokenKind::kLParen, TokenKind::kIdent, TokenKind::kComma,
                TokenKind::kInteger, TokenKind::kRParen, TokenKind::kComma,
                TokenKind::kNot, TokenKind::kIdent, TokenKind::kLParen,
                TokenKind::kVariable, TokenKind::kRParen, TokenKind::kDot,
                TokenKind::kEof}));
}

TEST(Lexer, CommentsAndWhitespace) {
  auto toks = Tokenize("% a comment\n  p. % trailing\n");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks).size(), 3u);  // p, '.', EOF
}

TEST(Lexer, PrologStyleNegation) {
  auto toks = Tokenize("p :- \\+ q.");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[2].kind, TokenKind::kNot);
}

TEST(Lexer, NegativeIntegerAndQuotedAtom) {
  auto toks = Tokenize("p(-3, 'Hello world').");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[2].text, "-3");
  EXPECT_EQ((*toks)[4].text, "Hello world");
  EXPECT_EQ((*toks)[4].kind, TokenKind::kIdent);
}

TEST(Lexer, PositionsInErrors) {
  auto toks = Tokenize("p :- q.\n  @");
  ASSERT_FALSE(toks.ok());
  EXPECT_NE(toks.status().message().find("2:3"), std::string::npos)
      << toks.status().ToString();
}

TEST(Lexer, UnterminatedQuote) {
  auto toks = Tokenize("p('oops).");
  ASSERT_FALSE(toks.ok());
  EXPECT_NE(toks.status().message().find("unterminated"), std::string::npos);
}

TEST(Parser, FactsRulesAndRoundTrip) {
  auto p = Parser::Parse("e(1,2).\nwins(X) :- move(X,Y), not wins(Y).\n");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->rules().size(), 2u);
  EXPECT_TRUE(p->rules()[0].IsFact(p->terms()));
  EXPECT_FALSE(p->rules()[1].IsFact(p->terms()));
  EXPECT_EQ(p->RuleToString(p->rules()[1]),
            "wins(X) :- move(X,Y), not wins(Y).");
}

TEST(Parser, PropositionalAtoms) {
  auto p = Parser::Parse("p :- q, not r. q. ");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->rules()[0].body.size(), 2u);
  EXPECT_TRUE(p->rules()[0].body[0].positive);
  EXPECT_FALSE(p->rules()[0].body[1].positive);
}

TEST(Parser, CompoundTerms) {
  auto p = Parser::Parse("num(z). num(s(X)) :- num(X), not bad(s(X)). ");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const Rule& r = p->rules()[1];
  EXPECT_EQ(p->terms().kind(r.head.args[0]), TermKind::kCompound);
  EXPECT_EQ(p->AtomToString(r.head), "num(s(X))");
}

TEST(Parser, ErrorMissingDot) {
  auto p = Parser::Parse("p :- q");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(p.status().message().find("expected '.'"), std::string::npos);
}

TEST(Parser, ErrorBadHead) {
  auto p = Parser::Parse("X :- q.");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("predicate"), std::string::npos);
}

TEST(Parser, RejectsInconsistentArity) {
  auto p = Parser::Parse("p(a). p(a,b).");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("inconsistent arities"),
            std::string::npos);
}

TEST(Parser, RejectsUnsafeHeadVariable) {
  auto p = Parser::Parse("p(X) :- not q(X).");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("unsafe"), std::string::npos);
}

TEST(Parser, RejectsUnsafeNegativeVariable) {
  auto p = Parser::Parse("p :- e(X), not q(X, Y).");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("negative literal"),
            std::string::npos);
}

TEST(Parser, AcceptsGroundNegation) {
  auto p = Parser::Parse("p :- not q. q :- not p.");
  EXPECT_TRUE(p.ok()) << p.status().ToString();
}

TEST(Parser, VariablesOnlyInPositiveBodyAreFine) {
  auto p = Parser::Parse("reach(Y) :- reach(X), e(X,Y). reach(a).");
  EXPECT_TRUE(p.ok()) << p.status().ToString();
}

TEST(Parser, EmptyInput) {
  auto p = Parser::Parse("  % nothing but comments\n");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->rules().empty());
}

TEST(Parser, ErrorPositionIsLineAndColumn) {
  auto p = Parser::Parse("p.\nq :- r s.");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().message(), "parse error at 2:8: expected '.', got 's'");
}

TEST(Parser, LexErrorAnywhereTakesPrecedence) {
  // The parse error comes first in the text, but a lexical error anywhere
  // is what the whole text reports.
  auto p = Parser::Parse("p :- .\nq.\n  @");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().message(), "lex error at 3:3: unexpected character '@'");
}

TEST(Parser, InternsInFirstOccurrenceOrder) {
  // A compound's functor follows its arguments; a constraint's __bot
  // follows its body.
  auto p = Parser::Parse("p(f(a), X) :- q(X, b). :- r(c). s.");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  std::vector<std::string> names;
  for (SymbolId i = 0; i < p->symbols().size(); ++i) {
    names.push_back(p->symbols().Name(i));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"p", "a", "f", "X", "q", "b",
                                             "r", "c", "__bot", "s"}));
  const TermTable& t = p->terms();
  ASSERT_EQ(t.size(), 5u);  // a, f(a), X, b, c
  EXPECT_EQ(t.ToString(0, p->symbols()), "a");
  EXPECT_EQ(t.ToString(1, p->symbols()), "f(a)");
  EXPECT_EQ(t.ToString(2, p->symbols()), "X");
  EXPECT_EQ(t.ToString(3, p->symbols()), "b");
  EXPECT_EQ(t.ToString(4, p->symbols()), "c");
}

TEST(Parser, RuleAppendLexErrorInternsNothing) {
  auto p = Parser::Parse("a.");
  ASSERT_TRUE(p.ok());
  auto first = Parser::ParseRulesInto(*p, "b(c) :- d(c), @.");
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.status().message().find("lex error at 1:15"),
            std::string::npos);
  EXPECT_EQ(p->symbols().size(), 1u);
  EXPECT_EQ(p->rules().size(), 1u);
}

// Parse(p.ToString()) reproduces the rendering and the symbol and term
// counts of `p`.
void ExpectRoundTrip(const Program& p, const std::string& what) {
  const std::string text = p.ToString();
  auto q = Parser::Parse(text);
  ASSERT_TRUE(q.ok()) << what << ": " << q.status().ToString() << "\n" << text;
  EXPECT_EQ(q->ToString(), text) << what;
  EXPECT_EQ(q->symbols().size(), p.symbols().size()) << what;
  EXPECT_EQ(q->terms().size(), p.terms().size()) << what;
}

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(AFP_LP_CORPUS_DIR)) {
    if (e.path().extension() == ".lp") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Parser, CorpusProgramsRoundTrip) {
  const auto files = CorpusFiles();
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    auto p = Parser::Parse(ReadFile(path));
    ASSERT_TRUE(p.ok()) << path << ": " << p.status().ToString();
    ExpectRoundTrip(*p, path.string());
  }
}

TEST(Parser, GeneratedWinMoveRoundTrips) {
  ExpectRoundTrip(workload::WinMove(graphs::ErdosRenyi(512, 2048, 7)),
                  "win-move");
}

TEST(Parser, QuotedNamesAndConstraintsRoundTrip) {
  auto p = Parser::Parse(
      "p('A b', 'not', 'X', X, -3, '42') :- e(X).\n"
      "e(x). :- e(x), not 'q r'.\n");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->RuleToString(p->rules()[0]),
            "p('A b','not','X',X,-3,42) :- e(X).");
  ExpectRoundTrip(*p, "quoted");
}

// p(f(f(...a...))) with `depth` nested f's.
std::string NestedFact(std::size_t depth) {
  std::string text = "p(";
  text.reserve(3 * depth + 8);
  for (std::size_t i = 0; i < depth; ++i) text += "f(";
  text += 'a';
  text.append(depth, ')');
  return text + ").";
}

void ExpectNestingRejected(std::size_t depth) {
  auto p = Parser::Parse(NestedFact(depth));
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
  // The functor one level past the bound, on line 1.
  const std::string where =
      "parse error at 1:" + std::to_string(2 * kMaxTermNesting + 3) +
      ": term nested deeper than " + std::to_string(kMaxTermNesting);
  EXPECT_EQ(p.status().message().rfind(where, 0), 0u)
      << p.status().message();
}

TEST(Parser, NestingPastTheBoundIsRejected) {
  ExpectNestingRejected(kMaxTermNesting + 1);
}

// Both depths overflowed the stack of the recursive parser before the
// bound existed.
TEST(Parser, Nesting50kIsRejected) { ExpectNestingRejected(50000); }
TEST(Parser, Nesting1MIsRejected) { ExpectNestingRejected(1000000); }

TEST(Parser, NestingAtTheBoundRunsEndToEnd) {
  const std::string fact = NestedFact(kMaxTermNesting);
  auto s = Solver::FromText(fact + "\nq(X) :- p(X), not r(X).\n");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  s->Solve();
  std::string deep_q = "q";
  deep_q.append(fact, 1, fact.size() - 2);
  auto v = s->Query(deep_q);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, TruthValue::kTrue);
  auto m = s->Select("q(X)");
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->size(), 1u);
  EXPECT_EQ((*m)[0].atom, deep_q);
}

TEST(Parser, DeepTextIntoASessionFailsCleanly) {
  SolverOptions opts;
  opts.ground.simplify = false;  // rule ops need the unsimplified program
  auto s = Solver::FromText("p(a).", opts);
  ASSERT_TRUE(s.ok());
  s->Solve();
  const std::string deep = NestedFact(50000);
  const std::string deep_atom = deep.substr(0, deep.size() - 1);
  EXPECT_EQ(s->Query(deep_atom).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s->Select(deep_atom).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s->AddRule("q :- " + deep_atom + ".").status().code(),
            StatusCode::kInvalidArgument);
}

// Deterministic byte-mutation fuzz over the corpus: every mutant parses or
// fails with kInvalidArgument (never crashes), and every mutant that
// parses round-trips. 4000 mutants keep the sanitizer lanes fast.
TEST(ParserMutation, CorpusMutantsParseOrFailCleanly) {
  std::vector<std::string> seeds;
  for (const auto& path : CorpusFiles()) seeds.push_back(ReadFile(path));
  ASSERT_FALSE(seeds.empty());
  // Bytes the grammar gives meaning to, plus arbitrary ones.
  const std::string alphabet = "(),.:-\\+'% \n\tXYZ_abn019";
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  auto next = [&x] {  // xorshift64: deterministic on every platform
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  int parsed = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string text = seeds[next() % seeds.size()];
    const int edits = 1 + static_cast<int>(next() % 3);
    for (int e = 0; e < edits; ++e) {
      const std::size_t at = next() % (text.size() + 1);
      const std::uint64_t r = next();
      const char byte = r & 8 ? alphabet[(r >> 8) % alphabet.size()]
                              : static_cast<char>(r >> 8);
      switch (r % 3) {
        case 0:  // replace
          if (at < text.size()) text[at] = byte;
          break;
        case 1:  // insert
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte);
          break;
        default:  // delete
          if (at < text.size()) text.erase(at, 1);
      }
    }
    auto p = Parser::Parse(text);
    if (!p.ok()) {
      ASSERT_EQ(p.status().code(), StatusCode::kInvalidArgument)
          << p.status().ToString() << "\n" << text;
      continue;
    }
    ++parsed;
    ExpectRoundTrip(*p, "mutant " + std::to_string(i));
    if (HasFatalFailure() || HasNonfatalFailure()) FAIL() << text;
  }
  // The fuzz must exercise both outcomes.
  EXPECT_GT(parsed, 100);
  EXPECT_LT(parsed, 4000);
}

}  // namespace
}  // namespace afp
