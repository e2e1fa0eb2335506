// The registered medcc_lint rules.
//
// Line-pattern rules (ported from the original single-file linter, same
// ids and semantics): raw-rand, cout-in-library, float-eq, pragma-once,
// namespace-medcc.
//
// Token-stream rules (new): mutable-field-near-mutex-without-guarded-by,
// detached-thread, lock-guard-unused, raw-fopen, catch-by-value,
// large-value-param, legacy-cpm-in-library, hand-rolled-le,
// frame-parse-outside-codec, hand-rolled-lru.
#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <vector>

#include "lint/rule.hpp"

namespace medcc_lint {

namespace {

bool path_contains(const std::filesystem::path& path,
                   const std::string& needle) {
  return path.generic_string().find(needle) != std::string::npos;
}

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// ---------------------------------------------------------------------------
// raw-rand

class RawRandRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "raw-rand"; }

  [[nodiscard]] std::string rationale() const override {
    return "all randomness must flow through the seeded util::Prng streams "
           "or experiments stop being reproducible";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    if (path_contains(file.path, "util/prng")) return;
    for (std::size_t i = 0; i < file.stripped_lines.size(); ++i) {
      const std::string& code = file.stripped_lines[i];
      for (const char* call : {"rand(", "srand(", "random_device"}) {
        const auto pos = code.find(call);
        // Reject bare rand(, not strtol/grand/prng.rand wrappers: the
        // character before must not be an identifier character.
        if (pos != std::string::npos &&
            (pos == 0 ||
             (!std::isalnum(static_cast<unsigned char>(code[pos - 1])) &&
              code[pos - 1] != '_'))) {
          out.push_back(Finding{
              file.path.string(), i + 1, id(),
              std::string("'") + call +
                  "' outside src/util/prng; use util::Prng streams",
              "thread a util::Prng stream through the call site"});
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// cout-in-library

class CoutInLibraryRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "cout-in-library"; }

  [[nodiscard]] std::string rationale() const override {
    return "the leveled logger util/log.hpp is the only allowed console "
           "sink in library code; raw streams bypass level filtering";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    if (path_contains(file.path, "util/log.cpp")) return;
    for (std::size_t i = 0; i < file.stripped_lines.size(); ++i) {
      const std::string& code = file.stripped_lines[i];
      for (const char* sink : {"std::cout", "std::cerr", "printf("}) {
        const auto pos = code.find(sink);
        if (pos != std::string::npos &&
            (pos == 0 ||
             (!std::isalnum(static_cast<unsigned char>(code[pos - 1])) &&
              code[pos - 1] != '_' && code[pos - 1] != ':'))) {
          out.push_back(Finding{
              file.path.string(), i + 1, id(),
              std::string("'") + sink +
                  "' in library code; use util/log.hpp loggers",
              "replace with MEDCC_LOG_INFO(...) or a caller-supplied "
              "std::ostream&"});
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// float-eq

/// Identifier tokens whose comparison with ==/!= indicates a float
/// time/cost comparison.
const std::set<std::string>& float_tokens() {
  static const std::set<std::string> tokens = {
      "time",  "times",   "cost",     "costs", "med",      "makespan",
      "budget", "deadline", "billed", "rate",  "rates",    "est",
      "eft",   "lst",     "lft",      "slack", "uptime",   "duration",
      "durations"};
  return tokens;
}

/// Splits `code` into lowercase identifier tokens; snake_case identifiers
/// also contribute their parts (cost_rate -> cost, rate).
std::vector<std::string> identifier_tokens(const std::string& code) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : code) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      cur.push_back(c);
    } else if (!cur.empty()) {
      tokens.push_back(lowercase(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) tokens.push_back(lowercase(cur));
  std::vector<std::string> expanded = tokens;
  for (const auto& t : tokens) {
    std::string part;
    for (char c : t) {
      if (c == '_') {
        if (!part.empty()) expanded.push_back(part);
        part.clear();
      } else {
        part.push_back(c);
      }
    }
    if (!part.empty()) expanded.push_back(part);
  }
  return expanded;
}

/// True when the character can start/continue an operator glyph that makes
/// a '=' at the next position something other than equality.
bool is_compound_op_prefix(char c) {
  return c == '=' || c == '!' || c == '<' || c == '>' || c == '+' ||
         c == '-' || c == '*' || c == '/' || c == '&' || c == '|' ||
         c == '^' || c == '%';
}

/// Removes the comparison forms that never carry float semantics --
/// container-size chains, literal-zero comparisons, operator declarations
/// -- so both the comparison detection and the keyword-token scan run on
/// the same reduced text.
std::string reduce_for_float_eq(std::string code) {
  for (const char* decl : {"operator==", "operator!="}) {
    for (auto pos = code.find(decl); pos != std::string::npos;
         pos = code.find(decl))
      code.erase(pos, std::string(decl).size());
  }
  // Integral container-size chains never carry float semantics; strip the
  // whole postfix expression so its tokens do not match the keyword set.
  for (const char* call : {".size()", ".empty()", ".count("}) {
    for (auto pos = code.find(call); pos != std::string::npos;
         pos = code.find(call)) {
      std::size_t begin = pos;
      while (begin > 0) {
        const char c = code[begin - 1];
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '.' || c == ':' || c == '>' || c == '-' || c == ']' ||
            c == '[' || c == ')' || c == '(') {
          --begin;
        } else {
          break;
        }
      }
      code.erase(begin, pos - begin + std::string(call).size());
    }
  }
  // Drop literal-zero comparisons ("x == 0.0", "n != 0"): exact zero is
  // well-defined for values that are assigned, never accumulated.
  for (const char* zero : {"== 0.0", "!= 0.0", "==0.0", "!=0.0"}) {
    for (auto pos = code.find(zero); pos != std::string::npos;
         pos = code.find(zero))
      code.erase(pos, std::string(zero).size());
  }
  for (const char* zero : {"== 0", "!= 0", "==0", "!=0"}) {
    for (auto pos = code.find(zero); pos != std::string::npos;
         pos = code.find(zero, pos + 1)) {
      const std::size_t after = pos + std::string(zero).size();
      if (after < code.size() &&
          (std::isdigit(static_cast<unsigned char>(code[after])) ||
           code[after] == '.' || code[after] == 'x'))
        continue;  // 0.5, 0x..: a real literal, keep the comparison
      code.erase(pos, std::string(zero).size());
      pos = 0;
    }
  }
  return code;
}

/// True when the (already reduced) code still contains a ==/!= comparison
/// whose right operand is not a qualified constant (Enum::Value,
/// limits<double>::infinity).
bool has_float_comparison(const std::string& code) {
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (code[i + 1] != '=') continue;
    const bool is_eq =
        code[i] == '=' && (i == 0 || !is_compound_op_prefix(code[i - 1]));
    const bool is_ne = code[i] == '!';
    if (!is_eq && !is_ne) continue;
    std::size_t j = i + 2;
    while (j < code.size() && code[j] == ' ') ++j;
    std::size_t end = j;
    while (end < code.size() &&
           (std::isalnum(static_cast<unsigned char>(code[end])) ||
            code[end] == '_' || code[end] == ':'))
      ++end;
    if (code.substr(j, end - j).find("::") != std::string::npos) continue;
    return true;
  }
  return false;
}

class FloatEqRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "float-eq"; }

  [[nodiscard]] std::string rationale() const override {
    return "accumulated double time/cost quantities are never exactly "
           "equal; exact comparisons hide order-dependent tie-breaks";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    for (std::size_t i = 0; i < file.stripped_lines.size(); ++i) {
      const std::string reduced = reduce_for_float_eq(file.stripped_lines[i]);
      if (!has_float_comparison(reduced)) continue;
      for (const auto& t : identifier_tokens(reduced)) {
        if (float_tokens().count(t) != 0) {
          out.push_back(Finding{
              file.path.string(), i + 1, id(),
              "==/!= on a double time/cost quantity ('" + t +
                  "'); compare with a tolerance or annotate the exact "
                  "tie-break with medcc-lint: allow(float-eq)",
              "use std::abs(a - b) <= tolerance"});
          break;
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// pragma-once / namespace-medcc (headers only)

class PragmaOnceRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "pragma-once"; }

  [[nodiscard]] std::string rationale() const override {
    return "every public header must guard against double inclusion";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    if (!file.is_header) return;
    for (const std::string& raw : file.raw_lines)
      if (raw.find("#pragma once") != std::string::npos) return;
    out.push_back(Finding{file.path.string(), 1, id(),
                          "public header lacks #pragma once",
                          "add '#pragma once' at the top of the header"});
  }
};

class NamespaceMedccRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "namespace-medcc"; }

  [[nodiscard]] std::string rationale() const override {
    return "public headers must scope their declarations under namespace "
           "medcc to keep the library embeddable";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    if (!file.is_header) return;
    for (const std::string& raw : file.raw_lines)
      if (raw.find("namespace medcc") != std::string::npos) return;
    out.push_back(Finding{file.path.string(), 1, id(),
                          "public header declares no namespace medcc",
                          "wrap the declarations in namespace medcc"});
  }
};

// ---------------------------------------------------------------------------
// Token-stream helpers

bool is_punct(const Token& t, char c) {
  return t.kind == TokenKind::Punct && t.text.size() == 1 && t.text[0] == c;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokenKind::Identifier && t.text == text;
}

// ---------------------------------------------------------------------------
// mutable-field-near-mutex-without-guarded-by

/// Type tokens that identify a mutex-like member.
const std::set<std::string>& mutex_type_tokens() {
  static const std::set<std::string> types = {
      "mutex",       "shared_mutex",          "timed_mutex",
      "recursive_mutex", "shared_timed_mutex", "Mutex", "SharedMutex"};
  return types;
}

/// Members that are themselves synchronization primitives (or
/// synchronize internally) and therefore need no GUARDED_BY.
const std::set<std::string>& sync_type_tokens() {
  static const std::set<std::string> types = {
      "atomic",       "atomic_bool",       "atomic_flag",
      "atomic_int",   "atomic_size_t",     "atomic_uint64_t",
      "condition_variable", "condition_variable_any", "once_flag",
      "PaddedAtomic", "Mutex",        "SharedMutex",       "mutex",
      "shared_mutex", "timed_mutex",       "recursive_mutex",
      "shared_timed_mutex",
      // C++20 coordination primitives: internally synchronized, so a
      // field of one of these types needs no GUARDED_BY of its own.
      "counting_semaphore", "binary_semaphore", "latch", "barrier"};
  return types;
}

/// Declaration-introducing tokens that mean the statement is not a plain
/// data member.
const std::set<std::string>& non_field_keywords() {
  static const std::set<std::string> keywords = {
      "static",  "constexpr", "using",   "typedef", "friend",
      "template", "operator", "public",  "private", "protected",
      "enum",    "class",     "struct",  "union",   "explicit",
      "virtual", "inline",    "typename"};
  return keywords;
}

class MutexGuardedByRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override {
    return "mutable-field-near-mutex-without-guarded-by";
  }

  [[nodiscard]] std::string rationale() const override {
    return "a class holding a mutex must say, per field, whether the "
           "mutex guards it (MEDCC_GUARDED_BY) or why not "
           "(MEDCC_NOT_GUARDED); unannotated fields are where data races "
           "hide";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    // One class body under analysis. Member-declaration statements are
    // collected at the body's immediate brace depth; method bodies and
    // nested classes live deeper and are handled by their own scope.
    struct Scope {
      int body_depth = 0;
      std::vector<std::vector<Token>> statements;
      std::vector<Token> current;
    };

    const std::vector<Token>& toks = file.tokens;
    std::vector<Scope> scopes;
    int depth = 0;
    bool class_pending = false;

    auto finish_scope = [&](Scope& scope) {
      if (!scope.current.empty()) scope.statements.push_back(scope.current);
      analyze_class(file, scope.statements, out);
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];

      if (t.kind == TokenKind::Identifier &&
          (t.text == "class" || t.text == "struct")) {
        // "enum class"/"enum struct" declares an enum, not a class body.
        const bool after_enum = i > 0 && is_ident(toks[i - 1], "enum");
        if (!after_enum) class_pending = true;
      } else if (class_pending &&
                 (is_punct(t, ';') || is_punct(t, '(') || is_punct(t, ')') ||
                  is_punct(t, '='))) {
        // Forward declaration, template parameter, elaborated type in a
        // signature, or `= delete`-style context: no class body follows.
        class_pending = false;
      }

      if (is_punct(t, '{')) {
        if (!scopes.empty() && depth == scopes.back().body_depth) {
          // A `{` at member level starts a method body, default member
          // initializer, or nested class body: the collected statement is
          // not a plain field.
          scopes.back().current.clear();
        }
        ++depth;
        if (class_pending) {
          scopes.push_back(Scope{depth, {}, {}});
          class_pending = false;
        }
        continue;
      }
      if (is_punct(t, '}')) {
        --depth;
        if (!scopes.empty() && depth < scopes.back().body_depth) {
          finish_scope(scopes.back());
          scopes.pop_back();
        }
        continue;
      }

      if (scopes.empty() || depth != scopes.back().body_depth) continue;
      Scope& scope = scopes.back();
      if (is_punct(t, ';')) {
        if (!scope.current.empty()) {
          scope.statements.push_back(scope.current);
          scope.current.clear();
        }
        continue;
      }
      if (is_punct(t, ':') && scope.current.size() == 1 &&
          non_field_keywords().count(scope.current.front().text) != 0) {
        // Access specifier: not a member declaration.
        scope.current.clear();
        continue;
      }
      scope.current.push_back(t);
    }
  }

 private:
  static bool has_token(const std::vector<Token>& stmt,
                        const std::set<std::string>& set) {
    for (const Token& t : stmt)
      if (t.kind == TokenKind::Identifier && set.count(t.text) != 0)
        return true;
    return false;
  }

  static bool has_ident(const std::vector<Token>& stmt, const char* text) {
    for (const Token& t : stmt)
      if (is_ident(t, text)) return true;
    return false;
  }

  /// True when `stmt` declares a plain data member (no parentheses means
  /// no function declarator; std::function members are an accepted
  /// false negative of this shape test).
  static bool is_plain_field(const std::vector<Token>& stmt) {
    if (stmt.empty()) return false;
    if (has_token(stmt, non_field_keywords())) return false;
    if (has_ident(stmt, "const")) return false;  // immutable after ctor
    for (const Token& t : stmt)
      if (is_punct(t, '(') || is_punct(t, ')')) return false;
    // A field declaration ends in an identifier (the member name),
    // possibly after an array extent.
    const Token& last = stmt.back();
    return last.kind == TokenKind::Identifier ||
           (is_punct(last, ']') && stmt.size() > 1);
  }

  static std::string field_name(const std::vector<Token>& stmt) {
    for (auto it = stmt.rbegin(); it != stmt.rend(); ++it)
      if (it->kind == TokenKind::Identifier) return it->text;
    return "<field>";
  }

  void analyze_class(const SourceFile& file,
                     const std::vector<std::vector<Token>>& statements,
                     std::vector<Finding>& out) const {
    bool has_mutex_member = false;
    for (const auto& stmt : statements) {
      if (has_token(stmt, mutex_type_tokens()) &&
          !has_ident(stmt, "MEDCC_GUARDED_BY") && is_plain_field(stmt)) {
        has_mutex_member = true;
        break;
      }
    }
    if (!has_mutex_member) return;

    for (const auto& stmt : statements) {
      if (has_ident(stmt, "MEDCC_GUARDED_BY") ||
          has_ident(stmt, "MEDCC_PT_GUARDED_BY") ||
          has_ident(stmt, "MEDCC_NOT_GUARDED"))
        continue;
      if (has_token(stmt, sync_type_tokens())) continue;
      if (!is_plain_field(stmt)) continue;
      out.push_back(Finding{
          file.path.string(), stmt.front().line, id(),
          "field '" + field_name(stmt) +
              "' sits in a class with a mutex but carries neither "
              "MEDCC_GUARDED_BY nor MEDCC_NOT_GUARDED",
          "append MEDCC_GUARDED_BY(<mutex>) if the mutex protects it, or "
          "MEDCC_NOT_GUARDED with a comment explaining why it needs no "
          "lock"});
    }
  }
};

// ---------------------------------------------------------------------------
// detached-thread

class DetachedThreadRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "detached-thread"; }

  [[nodiscard]] std::string rationale() const override {
    return "a detached thread outlives its owner and races shutdown; "
           "join in the destructor or submit to util::ThreadPool";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
      if (!is_ident(toks[i], "detach")) continue;
      if (!is_punct(toks[i + 1], '(') || !is_punct(toks[i + 2], ')')) continue;
      const bool via_dot = is_punct(toks[i - 1], '.');
      const bool via_arrow = i >= 2 && is_punct(toks[i - 1], '>') &&
                             is_punct(toks[i - 2], '-');
      if (!via_dot && !via_arrow) continue;
      out.push_back(Finding{
          file.path.string(), toks[i].line, id(),
          "thread detach() severs ownership; the thread can outlive every "
          "object it touches",
          "keep the std::thread as a member and join() it in the "
          "destructor, or submit the work to util::ThreadPool"});
    }
  }
};

// ---------------------------------------------------------------------------
// lock-guard-unused

/// RAII lock types whose unnamed temporaries unlock immediately.
const std::set<std::string>& lock_type_tokens() {
  static const std::set<std::string> types = {
      "lock_guard", "scoped_lock",     "unique_lock",
      "shared_lock", "MutexLock",      "ReaderMutexLock",
      "WriterMutexLock"};
  return types;
}

/// Tokens transparent to the statement-start test: namespace
/// qualification and cv-qualifiers before the lock type.
bool is_transparent_before_lock(const Token& t) {
  return is_punct(t, ':') || is_ident(t, "std") || is_ident(t, "util") ||
         is_ident(t, "medcc") || is_ident(t, "const");
}

class LockGuardUnusedRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "lock-guard-unused"; }

  [[nodiscard]] std::string rationale() const override {
    return "std::scoped_lock(m); constructs a temporary that unlocks at "
           "the semicolon -- the rest of the scope runs unlocked";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::Identifier ||
          lock_type_tokens().count(toks[i].text) == 0)
        continue;
      if (!at_statement_start(toks, i)) continue;
      std::size_t j = i + 1;
      // Skip explicit template arguments: lock_guard<std::mutex>.
      if (j < toks.size() && is_punct(toks[j], '<')) {
        int angle = 0;
        while (j < toks.size()) {
          if (is_punct(toks[j], '<')) ++angle;
          if (is_punct(toks[j], '>') && --angle == 0) {
            ++j;
            break;
          }
          ++j;
        }
      }
      if (j >= toks.size()) continue;
      // A named guard continues with the variable name; a temporary goes
      // straight to the constructor arguments. Requiring a terminating
      // `;` right after the close excludes deleted special members
      // (`MutexLock(const MutexLock&) = delete;`).
      const char open = is_punct(toks[j], '(')   ? '('
                        : is_punct(toks[j], '{') ? '{'
                                                 : '\0';
      if (open == '\0') continue;
      const char close = open == '(' ? ')' : '}';
      int nest = 0;
      while (j < toks.size()) {
        if (is_punct(toks[j], open)) ++nest;
        if (is_punct(toks[j], close) && --nest == 0) break;
        ++j;
      }
      if (j + 1 < toks.size() && is_punct(toks[j + 1], ';')) {
        out.push_back(Finding{
            file.path.string(), toks[i].line, id(),
            "unnamed " + toks[i].text +
                " temporary unlocks at the end of this statement, not the "
                "end of the scope",
            "name the guard: const " + toks[i].text + " lock(...);"});
      }
    }
  }

 private:
  /// True when token `i` begins a declaration statement (rather than
  /// appearing in a return value, argument list, or member signature).
  static bool at_statement_start(const std::vector<Token>& toks,
                                 std::size_t i) {
    while (i > 0) {
      const Token& prev = toks[i - 1];
      if (is_transparent_before_lock(prev)) {
        --i;
        continue;
      }
      return is_punct(prev, ';') || is_punct(prev, '{') || is_punct(prev, '}');
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// raw-fopen

/// stdio entry points that hand out an unmanaged FILE* handle.
const std::set<std::string>& stdio_open_tokens() {
  static const std::set<std::string> calls = {"fopen", "freopen", "fdopen",
                                              "tmpfile"};
  return calls;
}

class RawFopenRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "raw-fopen"; }

  [[nodiscard]] std::string rationale() const override {
    return "buffered FILE* handles leak on exceptions and hide write "
           "ordering from the crash-safety discipline; file IO goes "
           "through the RAII util::File / util::atomic_write_file layer";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    // The RAII layer itself is the one sanctioned home of low-level IO.
    if (path_contains(file.path, "util/atomic_file")) return;
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::Identifier) continue;
      if (stdio_open_tokens().count(toks[i].text) != 0 &&
          is_punct(toks[i + 1], '(')) {
        out.push_back(Finding{
            file.path.string(), toks[i].line, id(),
            "'" + toks[i].text +
                "' hands out an unmanaged FILE* that leaks on exceptions "
                "and buffers writes behind fsync's back",
            "use util::File (RAII fd, explicit sync) or "
            "util::atomic_write_file for whole-file replacement"});
      } else if (toks[i].text == "FILE" && is_punct(toks[i + 1], '*')) {
        out.push_back(Finding{
            file.path.string(), toks[i].line, id(),
            "raw FILE* handle; ownership and flush timing are invisible "
            "to the crash-safety machinery",
            "hold a util::File member instead of a FILE*"});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// raw-stderr

/// stdio sinks that write straight to a FILE* stream (stderr in
/// practice), bypassing the leveled logger.
const std::set<std::string>& stdio_write_tokens() {
  static const std::set<std::string> calls = {"fprintf", "vfprintf", "fputs",
                                              "fputc", "perror"};
  return calls;
}

class RawStderrRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "raw-stderr"; }

  [[nodiscard]] std::string rationale() const override {
    return "stdio writes to stderr bypass the leveled, trace-stamped "
           "util/log sink: lines interleave across threads, carry no "
           "level or trace id, and ignore set_log_threshold";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    // The logger implementation is the one sanctioned console writer.
    if (path_contains(file.path, "util/log.cpp")) return;
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::Identifier) continue;
      if (stdio_write_tokens().count(toks[i].text) != 0 &&
          is_punct(toks[i + 1], '(')) {
        out.push_back(Finding{
            file.path.string(), toks[i].line, id(),
            "'" + toks[i].text +
                "' writes raw bytes to a stdio stream, skipping level "
                "filtering, trace-id stamping, and the single-write "
                "line discipline of util/log",
            "use MEDCC_LOG_WARN(...) / MEDCC_LOG_ERROR(...) from "
            "util/log.hpp"});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// catch-by-value

class CatchByValueRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "catch-by-value"; }

  [[nodiscard]] std::string rationale() const override {
    return "catching by value slices derived exceptions and copies on "
           "every throw; catch by const reference";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!is_ident(toks[i], "catch") || !is_punct(toks[i + 1], '(')) continue;
      bool by_ref = false;
      bool by_pointer = false;
      bool ellipsis = false;
      int paren = 0;
      std::size_t j = i + 1;
      for (; j < toks.size(); ++j) {
        if (is_punct(toks[j], '(') && ++paren) continue;
        if (is_punct(toks[j], ')') && --paren == 0) break;
        if (is_punct(toks[j], '&')) by_ref = true;
        if (is_punct(toks[j], '*')) by_pointer = true;
        if (is_punct(toks[j], '.')) ellipsis = true;  // catch (...)
      }
      if (by_ref || by_pointer || ellipsis) continue;
      out.push_back(Finding{
          file.path.string(), toks[i].line, id(),
          "exception caught by value: derived types slice and every throw "
          "pays a copy",
          "catch (const T& e)"});
    }
  }
};

// ---------------------------------------------------------------------------
// large-value-param

/// Heavyweight domain types -- both hold per-module vectors (and the
/// Instance additionally the full matrices of execution times) -- that
/// must never cross a call boundary by value.
const std::set<std::string>& large_value_types() {
  static const std::set<std::string> types = {"Result", "Instance"};
  return types;
}

class LargeValueParamRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "large-value-param"; }

  [[nodiscard]] std::string rationale() const override {
    return "sched::Result and sched::Instance carry per-module vectors "
           "and matrices; a by-value parameter copies the whole problem "
           "on every call -- take const& (or share the Instance via "
           "shared_ptr<const Instance>)";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::Identifier ||
          large_value_types().count(toks[i].text) == 0)
        continue;
      if (!in_parameter_position(toks, i)) continue;
      // The declarator after the type: `Result r,` / `Result r)` /
      // `Result r = ...` passes by value. `Result&`, `Result*`,
      // `Result&&` (sink parameters) and template-argument uses
      // (`vector<Result>`) never reach the identifier test.
      const Token& name = toks[i + 1];
      if (name.kind != TokenKind::Identifier) continue;
      const Token& after = toks[i + 2];
      if (!is_punct(after, ',') && !is_punct(after, ')') &&
          !is_punct(after, '='))
        continue;
      out.push_back(Finding{
          file.path.string(), toks[i].line, id(),
          "parameter '" + name.text + "' takes " + toks[i].text +
              " by value; every call copies the per-module vectors",
          "declare it `const " + toks[i].text + "&` (or move-sink with "
          "`" + toks[i].text + "&&` when ownership transfers)"});
    }
  }

 private:
  /// True when the type token at `i` sits in a parameter list: walking
  /// left through namespace qualification (`medcc::sched::`) and an
  /// optional `const`, the preceding token is `(` or `,`.
  static bool in_parameter_position(const std::vector<Token>& toks,
                                    std::size_t i) {
    while (i > 0) {
      const Token& prev = toks[i - 1];
      if (is_punct(prev, ':')) {
        // Only full `ident::` qualification is transparent; a lone `:`
        // (label, range-for, ternary) ends the walk.
        if (i >= 3 && is_punct(toks[i - 2], ':') &&
            toks[i - 3].kind == TokenKind::Identifier) {
          i -= 3;
          continue;
        }
        return false;
      }
      if (is_ident(prev, "const")) {
        --i;
        continue;
      }
      return is_punct(prev, '(') || is_punct(prev, ',');
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// legacy-cpm-in-library

class LegacyCpmInLibraryRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override {
    return "legacy-cpm-in-library";
  }

  [[nodiscard]] std::string rationale() const override {
    return "dag::compute_cpm / dag::makespan are the independent reference "
           "the CPM kernels are tested against; library code evaluates "
           "makespans only through dag/cpm_kernel.hpp, so a second engine "
           "cannot creep back";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    // The reference implementation itself (declarations + definitions).
    if (path_contains(file.path, "dag/critical_path.")) return;
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!is_punct(toks[i + 1], '(')) continue;
      const bool legacy_cpm = is_ident(toks[i], "compute_cpm");
      const bool legacy_makespan =
          is_ident(toks[i], "makespan") && i >= 3 &&
          is_punct(toks[i - 1], ':') && is_punct(toks[i - 2], ':') &&
          is_ident(toks[i - 3], "dag");
      if (!legacy_cpm && !legacy_makespan) continue;
      out.push_back(Finding{
          file.path.string(), toks[i].line, id(),
          std::string("'") + (legacy_cpm ? "compute_cpm" : "dag::makespan") +
              "' calls the reference CPM outside src/dag/critical_path",
          "score through the instance's FlatDag: write weights into a "
          "dag::CpmWorkspace and call dag::makespan_into / dag::cpm_into "
          "(+ export_result)"});
    }
  }
};

// ---------------------------------------------------------------------------
// hand-rolled-le

class HandRolledLeRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "hand-rolled-le"; }

  [[nodiscard]] std::string rationale() const override {
    return "util/bytes.hpp is the one little-endian codec under the wire "
           "protocol and the persistence formats; byte-shift loops "
           "elsewhere are how a second copy of it would creep back";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    if (path_contains(file.path, "util/bytes.")) return;
    const std::vector<Token>& toks = file.tokens;
    // `>> (8 *` or `<< (8 *`: the shift of a per-byte encode/decode loop.
    for (std::size_t i = 0; i + 4 < toks.size(); ++i) {
      const char shift = toks[i].text.empty() ? '\0' : toks[i].text[0];
      if ((shift != '>' && shift != '<') || !is_punct(toks[i], shift) ||
          !is_punct(toks[i + 1], shift) || !is_punct(toks[i + 2], '(') ||
          toks[i + 3].kind != TokenKind::Number ||
          (toks[i + 3].text != "8" && lowercase(toks[i + 3].text) != "8u") ||
          !is_punct(toks[i + 4], '*'))
        continue;
      out.push_back(Finding{
          file.path.string(), toks[i].line, id(),
          "hand-rolled little-endian byte shift outside src/util/bytes",
          "encode through util::ByteWriter, decode through a "
          "util::ByteReader alias, or patch in place with "
          "util::store_le64"});
    }
  }
};

// ---------------------------------------------------------------------------
// frame-parse-outside-codec

class FrameParseOutsideCodecRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override {
    return "frame-parse-outside-codec";
  }

  [[nodiscard]] std::string rationale() const override {
    return "net::FrameBuffer is the one reader of frames off a byte "
           "stream; a parse_frame_header call elsewhere in the library is "
           "how a second, hand-rolled frame loop would creep back";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    // The codec defines the parser and the FrameBuffer built on it.
    if (path_contains(file.path, "net/codec.")) return;
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!is_ident(toks[i], "parse_frame_header") ||
          !is_punct(toks[i + 1], '('))
        continue;
      out.push_back(Finding{
          file.path.string(), toks[i].line, id(),
          "'parse_frame_header' reads frames outside src/net/codec",
          "append received bytes to a net::FrameBuffer and take complete "
          "frames from its next()"});
    }
  }
};

// ---------------------------------------------------------------------------
// hand-rolled-lru

class HandRolledLruRule final : public Rule {
 public:
  [[nodiscard]] std::string id() const override { return "hand-rolled-lru"; }

  [[nodiscard]] std::string rationale() const override {
    return "service::Lru is the one LRU behind the result cache, the wire "
           "cache and the intern table; a std::list elsewhere in the "
           "library is how a second, hand-rolled LRU would creep back";
  }

  void check(const SourceFile& file, std::vector<Finding>& out) const override {
    // The one LRU's recency list.
    if (path_contains(file.path, "service/lru.hpp")) return;
    const std::vector<Token>& toks = file.tokens;
    for (std::size_t i = 3; i < toks.size(); ++i) {
      if (!is_ident(toks[i], "list") || !is_punct(toks[i - 1], ':') ||
          !is_punct(toks[i - 2], ':') || !is_ident(toks[i - 3], "std"))
        continue;
      out.push_back(Finding{
          file.path.string(), toks[i].line, id(),
          "'std::list' outside src/service/lru.hpp",
          "memoize through service::Lru (or service::ShardedLru), passing "
          "the key's hash in once"});
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> make_all_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<RawRandRule>());
  rules.push_back(std::make_unique<CoutInLibraryRule>());
  rules.push_back(std::make_unique<FloatEqRule>());
  rules.push_back(std::make_unique<PragmaOnceRule>());
  rules.push_back(std::make_unique<NamespaceMedccRule>());
  rules.push_back(std::make_unique<MutexGuardedByRule>());
  rules.push_back(std::make_unique<DetachedThreadRule>());
  rules.push_back(std::make_unique<LockGuardUnusedRule>());
  rules.push_back(std::make_unique<RawFopenRule>());
  rules.push_back(std::make_unique<RawStderrRule>());
  rules.push_back(std::make_unique<CatchByValueRule>());
  rules.push_back(std::make_unique<LargeValueParamRule>());
  rules.push_back(std::make_unique<LegacyCpmInLibraryRule>());
  rules.push_back(std::make_unique<HandRolledLeRule>());
  rules.push_back(std::make_unique<FrameParseOutsideCodecRule>());
  rules.push_back(std::make_unique<HandRolledLruRule>());
  return rules;
}

}  // namespace medcc_lint
