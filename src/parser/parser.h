#ifndef AFP_PARSER_PARSER_H_
#define AFP_PARSER_PARSER_H_

#include <cstdint>
#include <string_view>

#include "ast/program.h"
#include "util/status.h"

namespace afp {

/// Deepest accepted term nesting (f(f(a)) nests 2 deep). Deeper terms are a
/// kInvalidArgument parse error, raised before the parser recurses further;
/// the bound keeps every recursive term walk downstream within its stack.
inline constexpr std::uint32_t kMaxTermNesting = 2000;

/// Reserved predicate name used to encode integrity constraints
/// (":- body." becomes "__bot :- body, not __bot."). A program with a
/// violated constraint has no stable model containing the body, and __bot
/// surfaces as undefined in the well-founded model when the body can hold.
inline constexpr char kConstraintAtomName[] = "__bot";

/// Parses a normal logic program (Definition 3.1) in conventional syntax:
///
///   % a comment
///   edge(1,2).                       % ground facts
///   wins(X) :- move(X,Y), not wins(Y).
///   u(X) :- e(Y,X), \+ w(Y).         % "\+" is a synonym for "not"
///
/// Identifiers starting with a lowercase letter (or quoted with single
/// quotes) are constants/functors/predicates; identifiers starting with an
/// uppercase letter or '_' are variables; integers are constants. Compound
/// terms f(g(X),a) are allowed in argument positions.
///
/// The returned program is validated (consistent arities and safety /
/// range restriction). Errors carry line:column positions. One pass over
/// the pull Lexer interns straight into the Program, in first-occurrence
/// order (a compound's functor after its arguments).
class Parser {
 public:
  static StatusOr<Program> Parse(std::string_view text);

  /// Parses a single atom — possibly containing variables, e.g. "tc(a,Y)" —
  /// into a scratch Program whose single (body-free) rule head is the atom.
  /// Skips validation, so unsafe patterns are fine; used by the query API.
  static StatusOr<Program> ParseAtomPattern(std::string_view text);

  /// Parses `text` appending its rules to `program`, interning into the
  /// program's own tables so new rules share its ids, then re-validates the
  /// combined program. Returns the index of the first appended rule. On a
  /// lexical error nothing is interned; on any other error the rule list is
  /// rolled back (symbols/terms interned so far stay, inert). This is the
  /// session-mutation entry point (Solver::AddRule).
  static StatusOr<std::size_t> ParseRulesInto(Program& program,
                                              std::string_view text);
};

}  // namespace afp

#endif  // AFP_PARSER_PARSER_H_
