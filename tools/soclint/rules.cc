/**
 * @file
 * The soclint rule families (see DESIGN.md §15 for the catalog):
 *
 *   DET-001  wall-clock / libc randomness in simulation code
 *   DET-002  unseeded RNG construction
 *   DET-003  unordered containers in deterministic merge paths
 *   DET-004  order-dependent accumulation inside parallelFor lambdas
 *   FC-001   a parse- or from-prefixed function writes its
 *            out-parameter before the last validation return
 *            (fail-closed parsing discipline)
 *   UNIT-001 raw double watts in power/core public headers
 *   UNIT-002 raw double/float MHz / Celsius / Joules in src headers
 *   UNIT-003 strong-type .count() escaping into a named raw double
 *   PERF-001 heap allocation inside a declared replay hot region
 *
 * Every pass works on the token stream; none of them re-reads raw
 * text, so string literals, comments and preprocessor lines can
 * never produce findings.
 */

#include "rules.hh"

#include <algorithm>
#include <cctype>
#include <set>
#include <string>

namespace soclint
{

namespace
{

// --------------------------------------------------------------
// Path scope helpers
// --------------------------------------------------------------

bool
hasSegment(const std::string &path, const char *segment)
{
    std::size_t begin = 0;
    while (begin <= path.size()) {
        std::size_t end = path.find_first_of("/\\", begin);
        if (end == std::string::npos)
            end = path.size();
        if (path.compare(begin, end - begin, segment) == 0)
            return true;
        begin = end + 1;
    }
    return false;
}

std::string
fileStem(const std::string &path)
{
    const std::size_t slash = path.find_last_of("/\\");
    const std::size_t begin =
        slash == std::string::npos ? 0 : slash + 1;
    const std::size_t dot = path.find_last_of('.');
    const std::size_t end =
        (dot == std::string::npos || dot < begin) ? path.size()
                                                  : dot;
    return path.substr(begin, end - begin);
}

bool
isHeaderPath(const std::string &path)
{
    const std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos)
        return false;
    const std::string ext = path.substr(dot);
    return ext == ".hh" || ext == ".hpp" || ext == ".h";
}

/** Files where libc/chrono time and raw engines are the point. */
bool
isRngImplementation(const std::string &path)
{
    const std::string stem = fileStem(path);
    return stem == "rng" || stem.rfind("rng_", 0) == 0;
}

std::string
toLower(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return s;
}

// --------------------------------------------------------------
// Token helpers
// --------------------------------------------------------------

using Toks = std::vector<Tok>;

bool
isIdent(const Tok &t, const char *text)
{
    return t.kind == Tk::Ident && t.text == text;
}

bool
isPunct(const Tok &t, const char *text)
{
    return t.kind == Tk::Punct && t.text == text;
}

bool
identAmong(const Tok &t, std::initializer_list<const char *> names)
{
    if (t.kind != Tk::Ident)
        return false;
    for (const char *n : names)
        if (t.text == n)
            return true;
    return false;
}

/** Index of the punctuator matching the opener at @p open
 *  ("(", "[" or "{"); T.size() when unbalanced. */
std::size_t
matchDelim(const Toks &T, std::size_t open)
{
    const std::string &o = T[open].text;
    const char *close = o == "(" ? ")" : o == "[" ? "]" : "}";
    int depth = 0;
    for (std::size_t i = open; i < T.size(); ++i) {
        if (T[i].kind != Tk::Punct)
            continue;
        if (T[i].text == o)
            ++depth;
        else if (T[i].text == close && --depth == 0)
            return i;
    }
    return T.size();
}

/** Index just past the template argument list opened by a `<` at
 *  @p open; handles `>>` closing two levels.  T.size() on bail. */
std::size_t
matchTemplateArgs(const Toks &T, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < T.size(); ++i) {
        if (T[i].kind != Tk::Punct)
            continue;
        if (T[i].text == "<")
            ++depth;
        else if (T[i].text == ">")
            --depth;
        else if (T[i].text == ">>")
            depth -= 2;
        else if (T[i].text == ";")
            return T.size(); // not a template arg list after all
        if (depth <= 0)
            return i + 1;
    }
    return T.size();
}

void
emit(const FileCtx &ctx, std::vector<Finding> &out, std::size_t line,
     const char *rule, std::string msg, bool suppressible = true)
{
    if (suppressible && allowedAt(*ctx.lex, line, rule))
        return;
    out.push_back({ctx.display, line, rule, std::move(msg), "",
                   false});
}

// --------------------------------------------------------------
// DET-001 — wall-clock / libc randomness in simulation code.
// Scope: src/ and examples/ (bench and tools measure wall time by
// design); rng implementation files are exempt.
// --------------------------------------------------------------

void
runDet001(const FileCtx &ctx, std::vector<Finding> &out)
{
    if (!ctx.allPaths && !hasSegment(ctx.display, "src") &&
        !hasSegment(ctx.display, "examples"))
        return;
    if (isRngImplementation(ctx.display))
        return;
    const Toks &T = ctx.lex->toks;
    for (std::size_t i = 0; i < T.size(); ++i) {
        if (T[i].kind != Tk::Ident)
            continue;
        const std::string &s = T[i].text;
        const bool member_access =
            i > 0 && (isPunct(T[i - 1], ".") ||
                      isPunct(T[i - 1], "->"));
        bool hit = false;
        if (s == "gettimeofday" || s == "clock_gettime" ||
            s == "system_clock" || s == "steady_clock" ||
            s == "high_resolution_clock") {
            hit = !member_access;
        } else if ((s == "time" || s == "clock") &&
                   i + 1 < T.size() && isPunct(T[i + 1], "(")) {
            hit = !member_access;
        } else if (s == "rand" || s == "srand") {
            const bool called =
                i + 1 < T.size() && isPunct(T[i + 1], "(");
            const bool qualified = i > 0 && isPunct(T[i - 1], "::");
            hit = !member_access && (called || qualified);
        }
        if (hit)
            emit(ctx, out, T[i].line, "DET-001",
                 "wall-clock or libc randomness in simulation "
                 "code; use sim::Tick / sim::Rng");
    }
}

// --------------------------------------------------------------
// DET-002 — unseeded RNG construction.  Scope: everywhere (rng
// implementation files exempt).
// --------------------------------------------------------------

void
runDet002(const FileCtx &ctx, std::vector<Finding> &out)
{
    if (isRngImplementation(ctx.display))
        return;
    const Toks &T = ctx.lex->toks;
    for (std::size_t i = 0; i < T.size(); ++i) {
        if (T[i].kind != Tk::Ident)
            continue;
        if (isIdent(T[i], "random_device")) {
            emit(ctx, out, T[i].line, "DET-002",
                 "unseeded RNG construction; derive every stream "
                 "from the experiment seed");
            continue;
        }
        if (!identAmong(T[i],
                        {"mt19937", "mt19937_64",
                         "default_random_engine", "minstd_rand",
                         "minstd_rand0", "ranlux24", "ranlux48",
                         "ranlux24_base", "ranlux48_base",
                         "knuth_b"}))
            continue;
        std::size_t j = i + 1;
        if (j < T.size() && T[j].kind == Tk::Ident)
            ++j;
        bool unseeded = false;
        if (j < T.size() && isPunct(T[j], ";"))
            unseeded = true;
        else if (j + 1 < T.size() && isPunct(T[j], "(") &&
                 isPunct(T[j + 1], ")"))
            unseeded = true;
        else if (j + 1 < T.size() && isPunct(T[j], "{") &&
                 isPunct(T[j + 1], "}"))
            unseeded = true;
        if (unseeded)
            emit(ctx, out, T[i].line, "DET-002",
                 "unseeded RNG construction; derive every stream "
                 "from the experiment seed");
    }
}

// --------------------------------------------------------------
// DET-003 — unordered containers in the deterministic merge paths.
// Scope: src/core, src/cluster, src/sim.  The declaration finding
// is suppressible after proving the container lookup-only; range-
// for iteration never is.
// --------------------------------------------------------------

void
runDet003(const FileCtx &ctx, std::vector<Finding> &out)
{
    if (!ctx.allPaths && !hasSegment(ctx.display, "core") &&
        !hasSegment(ctx.display, "cluster") &&
        !hasSegment(ctx.display, "sim"))
        return;
    const Toks &T = ctx.lex->toks;

    // Pass A: declarations, collecting bound variable names.
    std::vector<std::string> uvars;
    for (std::size_t i = 0; i < T.size(); ++i) {
        if (!identAmong(T[i], {"unordered_map", "unordered_set"}) ||
            i + 1 >= T.size() || !isPunct(T[i + 1], "<"))
            continue;
        emit(ctx, out, T[i].line, "DET-003",
             "unordered container in a deterministic merge path; "
             "use std::map/std::set or prove lookup-only and "
             "annotate");
        std::size_t j = matchTemplateArgs(T, i + 1);
        while (j < T.size() &&
               (isPunct(T[j], "&") || isPunct(T[j], "*")))
            ++j;
        if (j + 1 < T.size() && T[j].kind == Tk::Ident &&
            (isPunct(T[j + 1], ";") || isPunct(T[j + 1], "{") ||
             isPunct(T[j + 1], "=") || isPunct(T[j + 1], "(") ||
             isPunct(T[j + 1], ",")))
            uvars.push_back(T[j].text);
    }
    if (uvars.empty())
        return;

    // Pass B: range-for over a declared unordered container.
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
        if (!isIdent(T[i], "for") || !isPunct(T[i + 1], "("))
            continue;
        const std::size_t close = matchDelim(T, i + 1);
        if (close == T.size())
            continue;
        // The range-for colon sits at parenthesis depth 1 ("::" is
        // a distinct token, so a bare ":" is unambiguous).
        int depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
            if (isPunct(T[j], "("))
                ++depth;
            else if (isPunct(T[j], ")"))
                --depth;
            else if (depth == 1 && isPunct(T[j], ":")) {
                std::size_t k = j + 1;
                while (k < close && (isPunct(T[k], "*") ||
                                     isPunct(T[k], "&")))
                    ++k;
                if (k + 1 == close && T[k].kind == Tk::Ident &&
                    std::find(uvars.begin(), uvars.end(),
                              T[k].text) != uvars.end()) {
                    // Deliberately not suppressible: hash order is
                    // never a deterministic iteration order.
                    emit(ctx, out, T[k].line, "DET-003",
                         "range-for over unordered container '" +
                             T[k].text +
                             "'; iteration order depends on the "
                             "hash",
                         /*suppressible=*/false);
                }
                break;
            }
        }
    }
}

// --------------------------------------------------------------
// DET-004 — order-dependent accumulation on shared state inside a
// parallelFor / parallelForChunked lambda.  Scope: everywhere.
//
// A compound assignment inside the lambda body is flagged when its
// base object is captured by reference and the left-hand side is
// not indexed by a lambda parameter or body-local variable (the
// own-slot pattern the thread pool's contract requires: every index
// writes only its own output slot, merged in rack order
// afterwards).  std::fma calls are flagged unconditionally: fused
// contraction inside a reduction is order- and hardware-dependent.
// Proven rack-ordered merges annotate soclint:allow(DET-004).
// --------------------------------------------------------------

const std::set<std::string> &
declKeywords()
{
    static const std::set<std::string> kw = {
        "return", "else",   "if",     "while", "do",     "for",
        "case",   "break",  "continue", "new", "delete", "goto",
        "switch", "sizeof", "throw",  "co_return", "co_await"};
    return kw;
}

void
runDet004(const FileCtx &ctx, std::vector<Finding> &out)
{
    const Toks &T = ctx.lex->toks;
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
        if (!identAmong(T[i], {"parallelFor", "parallelForChunked"}) ||
            !isPunct(T[i + 1], "("))
            continue;
        const std::size_t call_close = matchDelim(T, i + 1);
        if (call_close == T.size())
            continue;

        for (std::size_t j = i + 2; j < call_close; ++j) {
            // A lambda introducer follows "(" or "," — a "[" after
            // an identifier or closing bracket is a subscript.
            if (!isPunct(T[j], "[") ||
                !(isPunct(T[j - 1], "(") || isPunct(T[j - 1], ",")))
                continue;
            const std::size_t cap_close = matchDelim(T, j);
            if (cap_close >= call_close)
                break;

            bool ref_default = false;
            std::set<std::string> ref_caps;
            for (std::size_t k = j + 1; k < cap_close; ++k) {
                if (isPunct(T[k], "&")) {
                    if (k + 1 < cap_close &&
                        T[k + 1].kind == Tk::Ident) {
                        ref_caps.insert(T[k + 1].text);
                        ++k;
                    } else {
                        ref_default = true;
                    }
                }
            }
            std::size_t k = cap_close + 1;
            std::set<std::string> locals;
            if (k < call_close && isPunct(T[k], "(")) {
                const std::size_t p_close = matchDelim(T, k);
                int depth = 0;
                for (std::size_t m = k; m < p_close; ++m) {
                    if (isPunct(T[m], "("))
                        ++depth;
                    else if (isPunct(T[m], ")"))
                        --depth;
                    else if (depth == 1 &&
                             T[m].kind == Tk::Ident &&
                             (isPunct(T[m + 1], ",") ||
                              m + 1 == p_close))
                        locals.insert(T[m].text);
                }
                k = p_close + 1;
            }
            while (k < call_close && !isPunct(T[k], "{"))
                ++k;
            if (k >= call_close)
                break;
            const std::size_t body_close = matchDelim(T, k);
            if (body_close > call_close) {
                j = cap_close;
                continue;
            }

            // Body-local declarations: `Type name` / `auto name`
            // followed by ; = { or ( — name shadows shared state.
            for (std::size_t m = k + 2; m < body_close; ++m) {
                if (T[m].kind != Tk::Ident ||
                    m + 1 >= body_close)
                    continue;
                const Tok &prev = T[m - 1];
                const Tok &next = T[m + 1];
                const bool decl_prev =
                    (prev.kind == Tk::Ident &&
                     declKeywords().count(prev.text) == 0) ||
                    isPunct(prev, "&") || isPunct(prev, "*") ||
                    isPunct(prev, ">");
                const bool decl_next =
                    isPunct(next, ";") || isPunct(next, "=") ||
                    isPunct(next, "{") || isPunct(next, "(");
                if (decl_prev && decl_next)
                    locals.insert(T[m].text);
            }

            for (std::size_t m = k + 1; m < body_close; ++m) {
                if (isIdent(T[m], "fma") && m + 1 < body_close &&
                    isPunct(T[m + 1], "(")) {
                    emit(ctx, out, T[m].line, "DET-004",
                         "fma inside a parallel loop lambda: fused "
                         "contraction is order-dependent; merge in "
                         "rack order outside the loop");
                    continue;
                }
                if (T[m].kind != Tk::Punct ||
                    (T[m].text != "+=" && T[m].text != "-=" &&
                     T[m].text != "*=" && T[m].text != "/="))
                    continue;
                // Statement start of the left-hand side.
                std::size_t s = m;
                while (s > k + 1 &&
                       !(isPunct(T[s - 1], ";") ||
                         isPunct(T[s - 1], "{") ||
                         isPunct(T[s - 1], "}") ||
                         isPunct(T[s - 1], ")")))
                    --s;
                std::string base;
                for (std::size_t q = s; q < m; ++q) {
                    if (T[q].kind == Tk::Ident) {
                        base = T[q].text;
                        break;
                    }
                }
                if (base.empty() || locals.count(base))
                    continue;
                if (!ref_default && !ref_caps.count(base))
                    continue;
                // Own-slot exemption: a subscript on the LHS whose
                // index mentions a lambda param or body local.
                bool own_slot = false;
                for (std::size_t q = s; q < m && !own_slot; ++q) {
                    if (!isPunct(T[q], "["))
                        continue;
                    const std::size_t b_close = matchDelim(T, q);
                    for (std::size_t r = q + 1;
                         r < b_close && r < m; ++r)
                        if (T[r].kind == Tk::Ident &&
                            locals.count(T[r].text)) {
                            own_slot = true;
                            break;
                        }
                }
                if (!own_slot)
                    emit(ctx, out, T[m].line, "DET-004",
                         "accumulation on by-reference shared state "
                         "'" + base +
                             "' inside a parallel loop lambda; "
                             "write per-index slots and merge in "
                             "rack order");
            }
            j = body_close;
        }
        i = call_close;
    }
}

// --------------------------------------------------------------
// FC-001 — fail-closed parsing: a function named parse*/from* that
// takes a non-const reference or pointer out-parameter must not
// write it before the last validation (early) return.  The
// conforming shape is core::wire::parseFrame: validate everything
// into locals, assign the out-parameter once, then return success.
// Scope: everywhere.
// --------------------------------------------------------------

struct OutParam {
    std::string name;
};

void
runFc001(const FileCtx &ctx, std::vector<Finding> &out)
{
    const Toks &T = ctx.lex->toks;
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
        if (T[i].kind != Tk::Ident || !isPunct(T[i + 1], "("))
            continue;
        const std::string low = toLower(T[i].text);
        if (low.rfind("parse", 0) != 0 && low.rfind("from", 0) != 0)
            continue;
        if (i > 0 &&
            (isPunct(T[i - 1], ".") || isPunct(T[i - 1], "->")))
            continue; // member call, not a definition
        const std::size_t params_close = matchDelim(T, i + 1);
        if (params_close == T.size())
            continue;

        // Definition?  Scan past cv/noexcept/trailing-return until
        // we hit "{" (definition) or a token that ends the idea.
        std::size_t k = params_close + 1;
        bool is_def = false;
        while (k < T.size()) {
            if (isPunct(T[k], "{")) {
                is_def = true;
                break;
            }
            if (isPunct(T[k], ";") || isPunct(T[k], ")") ||
                isPunct(T[k], ",") || isPunct(T[k], "}") ||
                isPunct(T[k], "="))
                break;
            ++k;
        }
        if (!is_def)
            continue;

        // Out-parameters: non-const & or * params.
        std::vector<OutParam> outs;
        {
            std::size_t begin = i + 2;
            int depth = 1;
            for (std::size_t m = i + 2; m <= params_close; ++m) {
                if (isPunct(T[m], "(") || isPunct(T[m], "<"))
                    ++depth;
                else if (isPunct(T[m], ")") || isPunct(T[m], ">"))
                    --depth;
                const bool at_split =
                    (depth == 1 && isPunct(T[m], ",")) ||
                    m == params_close;
                if (!at_split)
                    continue;
                bool has_const = false, has_ref = false;
                std::string name;
                for (std::size_t q = begin; q < m; ++q) {
                    if (isIdent(T[q], "const"))
                        has_const = true;
                    else if (isPunct(T[q], "&") ||
                             isPunct(T[q], "*"))
                        has_ref = true;
                    else if (isPunct(T[q], "="))
                        break; // default arg: name already seen
                    else if (T[q].kind == Tk::Ident)
                        name = T[q].text;
                }
                if (!has_const && has_ref && !name.empty())
                    outs.push_back({name});
                begin = m + 1;
            }
        }
        if (outs.empty()) {
            i = params_close;
            continue;
        }

        const std::size_t body_open = k;
        const std::size_t body_close = matchDelim(T, body_open);
        if (body_close == T.size())
            continue;

        // Early returns: every `return` except the last one in the
        // body.  Writes may only happen after the last of them.
        std::size_t last_return = 0, prev_return = 0;
        for (std::size_t m = body_open + 1; m < body_close; ++m) {
            if (isIdent(T[m], "return")) {
                prev_return = last_return;
                last_return = m;
            }
        }
        if (prev_return == 0) {
            i = body_close;
            continue; // zero or one return: nothing to order
        }
        const std::size_t guard = prev_return;

        for (std::size_t m = body_open + 1; m < guard; ++m) {
            if (T[m].kind != Tk::Ident)
                continue;
            bool is_out = false;
            for (const auto &o : outs)
                if (o.name == T[m].text)
                    is_out = true;
            if (!is_out)
                continue;
            // Statement start: preceded by ; { } ) else/do, or a
            // leading '*' deref of the same shape.
            std::size_t start = m;
            if (start > body_open && isPunct(T[start - 1], "*"))
                --start;
            const Tok &prev = T[start - 1];
            const bool stmt_start =
                isPunct(prev, ";") || isPunct(prev, "{") ||
                isPunct(prev, "}") || isPunct(prev, ")") ||
                isIdent(prev, "else") || isIdent(prev, "do");
            if (!stmt_start)
                continue;
            // Does the statement assign or call into the object?
            bool writes = false;
            int depth = 0;
            for (std::size_t q = m; q < guard; ++q) {
                if (isPunct(T[q], "("))
                    ++depth;
                else if (isPunct(T[q], ")"))
                    --depth;
                else if (depth == 0 && isPunct(T[q], ";"))
                    break;
                else if (depth == 0 && T[q].kind == Tk::Punct &&
                         (T[q].text == "=" || T[q].text == "+=" ||
                          T[q].text == "-=" || T[q].text == "*=" ||
                          T[q].text == "/=" || T[q].text == "%=" ||
                          T[q].text == "&=" || T[q].text == "|=" ||
                          T[q].text == "^=" ||
                          T[q].text == "<<=" ||
                          T[q].text == ">>="))
                    writes = true;
                else if (depth == 0 && q + 2 < guard &&
                         (isPunct(T[q], ".") ||
                          isPunct(T[q], "->")) &&
                         T[q + 1].kind == Tk::Ident &&
                         isPunct(T[q + 2], "("))
                    writes = true; // member call on the out-param
            }
            if (writes)
                emit(ctx, out, T[m].line, "FC-001",
                     "out-parameter '" + T[m].text +
                         "' written before the last validation "
                         "return; parse into a local and assign "
                         "only on full success (fail-closed)");
        }
        i = body_close;
    }
}

// --------------------------------------------------------------
// UNIT-001 — raw double watts in power/core public headers.
// --------------------------------------------------------------

void
runUnit001(const FileCtx &ctx, std::vector<Finding> &out)
{
    if (!isHeaderPath(ctx.display))
        return;
    if (!ctx.allPaths && !hasSegment(ctx.display, "power") &&
        !hasSegment(ctx.display, "core"))
        return;
    const Toks &T = ctx.lex->toks;
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
        if (!isIdent(T[i], "double"))
            continue;
        std::size_t j = i + 1;
        if (isPunct(T[j], "&") && j + 1 < T.size())
            ++j;
        if (T[j].kind == Tk::Ident &&
            toLower(T[j].text).find("watts") != std::string::npos)
            emit(ctx, out, T[i].line, "UNIT-001",
                 "raw double watts in a public header; use "
                 "power::Watts");
    }
}

// --------------------------------------------------------------
// UNIT-002 — raw double/float MHz / Celsius / Joules declarations
// in any public header under src/: these quantities cross module
// boundaries as power::FreqMHz / power::Celsius / power::Joules.
// --------------------------------------------------------------

void
runUnit002(const FileCtx &ctx, std::vector<Finding> &out)
{
    if (!isHeaderPath(ctx.display))
        return;
    if (!ctx.allPaths && !hasSegment(ctx.display, "src"))
        return;
    const Toks &T = ctx.lex->toks;
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
        if (!isIdent(T[i], "double") && !isIdent(T[i], "float"))
            continue;
        std::size_t j = i + 1;
        if (isPunct(T[j], "&") && j + 1 < T.size())
            ++j;
        if (T[j].kind != Tk::Ident)
            continue;
        const std::string low = toLower(T[j].text);
        const char *unit = nullptr;
        if (low.find("mhz") != std::string::npos)
            unit = "power::FreqMHz";
        else if (low.find("celsius") != std::string::npos)
            unit = "power::Celsius";
        else if (low.find("joules") != std::string::npos)
            unit = "power::Joules";
        if (unit != nullptr)
            emit(ctx, out, T[i].line, "UNIT-002",
                 "raw " + T[i].text + " '" + T[j].text +
                     "' in a public header; use " + unit);
    }
}

// --------------------------------------------------------------
// UNIT-003 — a strong type's .count() escaping into a named raw
// double that lives across statement boundaries: either a
// double/float local initialized from a .count() expression, or a
// compound accumulation of .count() values into a raw double.
// std::chrono durations also spell .count(), so statements that
// mention chrono vocabulary are exempt.  Scope: everywhere.
// --------------------------------------------------------------

bool
hasCountCall(const Toks &T, std::size_t begin, std::size_t end)
{
    for (std::size_t q = begin; q + 3 <= end && q + 3 < T.size();
         ++q) {
        if ((isPunct(T[q], ".") || isPunct(T[q], "->")) &&
            isIdent(T[q + 1], "count") &&
            isPunct(T[q + 2], "(") && isPunct(T[q + 3], ")"))
            return true;
    }
    return false;
}

bool
chronoExempt(const Toks &T, std::size_t begin, std::size_t end)
{
    for (std::size_t q = begin; q < end && q < T.size(); ++q) {
        if (identAmong(T[q],
                       {"chrono", "duration", "time_point",
                        "nanoseconds", "microseconds",
                        "milliseconds", "seconds", "minutes",
                        "hours"}))
            return true;
    }
    return false;
}

/** End (index of ';') of the statement starting at @p begin. */
std::size_t
statementEnd(const Toks &T, std::size_t begin)
{
    int depth = 0;
    for (std::size_t q = begin; q < T.size(); ++q) {
        if (T[q].kind != Tk::Punct)
            continue;
        if (T[q].text == "(" || T[q].text == "[" ||
            T[q].text == "{")
            ++depth;
        else if (T[q].text == ")" || T[q].text == "]" ||
                 T[q].text == "}")
            --depth;
        else if (depth <= 0 && T[q].text == ";")
            return q;
    }
    return T.size();
}

void
runUnit003(const FileCtx &ctx, std::vector<Finding> &out)
{
    const Toks &T = ctx.lex->toks;

    // Raw double/float names declared anywhere in this file.
    std::set<std::string> raw_doubles;
    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
        if (!isIdent(T[i], "double") && !isIdent(T[i], "float"))
            continue;
        if (i > 0 && isPunct(T[i - 1], "<"))
            continue; // template argument, e.g. static_cast<double>
        std::size_t j = i + 1;
        if (isPunct(T[j], "&") && j + 1 < T.size())
            ++j;
        if (T[j].kind == Tk::Ident)
            raw_doubles.insert(T[j].text);
    }

    for (std::size_t i = 0; i + 1 < T.size(); ++i) {
        // Pattern A: double NAME = ...count()...;
        if ((isIdent(T[i], "double") || isIdent(T[i], "float")) &&
            !(i > 0 && isPunct(T[i - 1], "<"))) {
            std::size_t j = i + 1;
            if (isPunct(T[j], "&") && j + 1 < T.size())
                ++j;
            if (T[j].kind == Tk::Ident && j + 1 < T.size() &&
                (isPunct(T[j + 1], "=") ||
                 isPunct(T[j + 1], "{"))) {
                const std::size_t end = statementEnd(T, j + 1);
                if (hasCountCall(T, j + 1, end) &&
                    !chronoExempt(T, i, end))
                    emit(ctx, out, T[i].line, "UNIT-003",
                         "strong-type .count() bound to raw " +
                             T[i].text + " '" + T[j].text +
                             "'; keep the quantity typed and call "
                             ".count() at the use site");
            }
            continue;
        }
        // Pattern B: NAME += ...count()...;  (NAME a raw double)
        if (T[i].kind == Tk::Punct &&
            (T[i].text == "+=" || T[i].text == "-=") && i > 0 &&
            T[i - 1].kind == Tk::Ident &&
            raw_doubles.count(T[i - 1].text)) {
            const std::size_t end = statementEnd(T, i);
            if (hasCountCall(T, i, end) &&
                !chronoExempt(T, i, end))
                emit(ctx, out, T[i].line, "UNIT-003",
                     "accumulating .count() values into raw "
                     "double '" +
                         T[i - 1].text +
                         "'; accumulate in the strong type and "
                         "convert once");
        }
    }
}

// --------------------------------------------------------------
// PERF-001 — heap allocation inside a declared replay hot region
// (between hot-begin / hot-end marker comments).  Marker imbalance
// is itself a finding and never suppressible (fail-closed).
// --------------------------------------------------------------

/** Is @p i a standard container (or string) named `std::X`? */
bool
isStdContainer(const Toks &T, std::size_t i)
{
    return i >= 2 && isPunct(T[i - 1], "::") &&
        isIdent(T[i - 2], "std") &&
        identAmong(T[i], {"vector", "deque", "list", "forward_list",
                          "map", "multimap", "set", "multiset",
                          "unordered_map", "unordered_set",
                          "unordered_multimap", "unordered_multiset",
                          "string", "basic_string"});
}

/** Is the container named at @p i constructed with arguments:
 *  `std::vector<T> v(n)`, `std::vector<T> v{n}`, or the temporary
 *  `std::vector<T>(n)`?  Empty parentheses or braces construct an
 *  empty container, which allocates nothing. */
bool
constructsWithArgs(const Toks &T, std::size_t i)
{
    std::size_t j = i + 1;
    if (j < T.size() && isPunct(T[j], "<"))
        j = matchTemplateArgs(T, j);
    if (j < T.size() && T[j].kind == Tk::Ident)
        ++j; // the variable's name
    if (j + 1 >= T.size() ||
        !(isPunct(T[j], "(") || isPunct(T[j], "{")))
        return false;
    return !isPunct(T[j + 1], T[j].text == "(" ? ")" : "}");
}

/** Does the `+` or `+=` at @p i concatenate strings: is an operand
 *  a string literal, a `to_string(...)` call or a `std::string(...)`
 *  temporary? */
bool
concatenatesStrings(const Toks &T, std::size_t i)
{
    if ((i > 0 && T[i - 1].kind == Tk::Str) ||
        (i + 1 < T.size() && T[i + 1].kind == Tk::Str))
        return true;
    std::size_t r = i + 1;
    if (r + 1 < T.size() && isIdent(T[r], "std") &&
        isPunct(T[r + 1], "::"))
        r += 2;
    if (r < T.size() && identAmong(T[r], {"to_string", "string"}))
        return true;
    if (i == 0 || !isPunct(T[i - 1], ")"))
        return false;
    // The left operand ends in a call: find its "(" and name.
    int depth = 0;
    for (std::size_t k = i - 1; k > 0; --k) {
        if (isPunct(T[k], ")"))
            ++depth;
        else if (isPunct(T[k], "(") && --depth == 0)
            return identAmong(T[k - 1], {"to_string", "string"});
    }
    return false;
}

void
runPerf001(const FileCtx &ctx, std::vector<Finding> &out)
{
    const LexedFile &L = *ctx.lex;
    const Toks &T = L.toks;
    std::size_t t = 0; // token cursor, advanced line by line
    bool in_hot = false;
    for (std::size_t ln = 1; ln <= L.lines.size(); ++ln) {
        const LineFacts &f = L.lines[ln - 1];
        if (f.hotBegin) {
            if (in_hot)
                emit(ctx, out, ln, "PERF-001",
                     "nested hot-begin marker; close the previous "
                     "region first",
                     /*suppressible=*/false);
            in_hot = true;
        }
        if (f.hotEnd) {
            if (!in_hot)
                emit(ctx, out, ln, "PERF-001",
                     "hot-end marker without a matching hot-begin",
                     /*suppressible=*/false);
            in_hot = false;
            // Allocations on the hot-end line are already outside.
        }
        for (; t < T.size() && T[t].line == ln; ++t) {
            if (!in_hot)
                continue;
            bool alloc = false;
            if (isIdent(T[t], "new") ||
                identAmong(T[t], {"make_unique", "make_shared"}))
                alloc = true;
            else if (identAmong(T[t],
                                {"push_back", "emplace_back"}) &&
                     t + 1 < T.size() && isPunct(T[t + 1], "("))
                alloc = true;
            else if (identAmong(T[t], {"resize", "reserve", "assign",
                                       "insert", "emplace",
                                       "emplace_hint", "try_emplace",
                                       "push_front",
                                       "emplace_front"}) &&
                     t > 0 &&
                     (isPunct(T[t - 1], ".") ||
                      isPunct(T[t - 1], "->")) &&
                     t + 1 < T.size() && isPunct(T[t + 1], "("))
                alloc = true;
            else if (isStdContainer(T, t) && constructsWithArgs(T, t))
                alloc = true;
            else if ((isPunct(T[t], "+") || isPunct(T[t], "+=")) &&
                     concatenatesStrings(T, t))
                alloc = true;
            if (alloc)
                emit(ctx, out, T[t].line, "PERF-001",
                     "heap allocation inside a replay hot region; "
                     "hoist it to setup or annotate the "
                     "amortization");
        }
    }
    if (in_hot)
        emit(ctx, out, L.lineCount, "PERF-001",
             "hot region never closed (missing hot-end marker)",
             /*suppressible=*/false);
}

} // namespace

const std::vector<Rule> &
ruleRegistry()
{
    static const std::vector<Rule> rules = {
        {"DET-001",
         "No wall-clock or libc randomness in simulation code",
         runDet001},
        {"DET-002", "No unseeded RNG construction", runDet002},
        {"DET-003",
         "No unordered containers in deterministic merge paths",
         runDet003},
        {"DET-004",
         "No order-dependent accumulation in parallel loop lambdas",
         runDet004},
        {"FC-001",
         "parse*/from* must not write out-parameters before the "
         "last validation return",
         runFc001},
        {"UNIT-001",
         "No raw double watts in power/core public headers",
         runUnit001},
        {"UNIT-002",
         "No raw double/float MHz, Celsius or Joules in src "
         "headers",
         runUnit002},
        {"UNIT-003",
         "No strong-type .count() escaping into named raw doubles",
         runUnit003},
        {"PERF-001",
         "No heap allocation inside declared replay hot regions",
         runPerf001},
    };
    return rules;
}

void
runAllRules(const FileCtx &ctx, std::vector<Finding> &out)
{
    const std::size_t first = out.size();
    for (const Rule &r : ruleRegistry())
        r.run(ctx, out);
    std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(first),
                     out.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.line != b.line)
                             return a.line < b.line;
                         return a.rule < b.rule;
                     });
}

} // namespace soclint
