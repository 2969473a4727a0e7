#!/usr/bin/env python3
"""gMark determinism lint.

Bans the sources of nondeterminism that would silently break the
repo's core guarantee — generated graphs, workloads, and CSRs are
byte-identical at any thread count — before they reach a flaky
identity diff three PRs later. Dependency-free (stdlib only), fast
(one pass per file), and wired into ctest (`ctest -R lint`) and the
`lint` CMake target.

Rules (see tools/lint/README.md for the rationale of each):

  raw-rand            rand()/srand() anywhere.
  random-device       std::random_device anywhere (entropy source).
  raw-engine          std:: RNG engines (mt19937[_64], minstd_rand,
                      default_random_engine, ...) outside
                      src/util/random.{h,cc} — everything else draws
                      through RandomEngine.
  clock-read          direct clock reads (steady/system/high_resolution
                      _clock::now, gettimeofday, clock(), time(0))
                      outside src/util/timer.h — WallTimer is the
                      single clock, in src and in tests.
  unordered-iter      iteration over a std::unordered_{map,set,...}
                      declared in the same file (range-for or
                      .begin()/.end()), in src/ — unordered iteration
                      order is a hash-seed artifact and must never
                      reach serialized output or a merge order.
  stream-format       <sstream>, std::stringstream and its i/o
                      siblings, snprintf/sprintf, std::setprecision or
                      std::fixed, in src/ — streams and printf format
                      numbers through the locale; writers append with
                      StrAppend and FormatDouble/FormatFixed
                      (src/util/string_util.h).
  rng-default-seed    RandomEngine constructed with no seed — the
                      default seed hides a missing DeriveSeed call.
  rng-underived-seed  RandomEngine seeded with an expression that is
                      neither a literal constant, a *seed* variable,
                      nor a DeriveSeed(...) derivation.
  nolint-empty-reason a NOLINT-DETERMINISM escape with no
                      justification string.

Escape hatch: `// NOLINT-DETERMINISM(reason)` on the flagged line or
the line directly above suppresses every rule for that line. The
reason is mandatory — an empty one is itself a finding.

Usage:
  determinism_lint.py [PATH...]     lint files/directories
                                    (default: <repo>/src <repo>/tests)
  exit 0: clean   exit 1: findings   exit 2: usage/IO error
"""

import os
import re
import sys

CXX_EXTENSIONS = {".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx"}

# Path suffixes (POSIX-style) where the banned construct is the
# sanctioned implementation itself.
RNG_ALLOWED_SUFFIXES = ("util/random.h", "util/random.cc")
CLOCK_ALLOWED_SUFFIXES = ("util/timer.h",)

NOLINT_RE = re.compile(r"NOLINT-DETERMINISM\(([^)]*)\)")

RAW_RAND_RE = re.compile(r"\b(?:s?rand)\s*\(")
RANDOM_DEVICE_RE = re.compile(r"\brandom_device\b")
RAW_ENGINE_RE = re.compile(
    r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
    r"|ranlux\w+|knuth_b|linear_congruential_engine"
    r"|mersenne_twister_engine|subtract_with_carry_engine)\b"
)
CLOCK_READ_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
    r"|\bgettimeofday\s*\("
    r"|\bclock\s*\(\s*\)"
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
)
UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<"
)
UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*(?:std\s*::\s*)?unordered_(?:map|set|multimap"
    r"|multiset)\s*<"
)
STREAM_FORMAT_RE = re.compile(
    r"#\s*include\s*<sstream>"
    r"|\b(?:std\s*::\s*)?[io]?stringstream\b"
    r"|\bsn?printf\s*\("
    r"|\b(?:std\s*::\s*)?setprecision\b"
    r"|\bstd\s*::\s*fixed\b"
)
RANDOM_ENGINE_USE_RE = re.compile(r"\bRandomEngine\b")
# A seed expression that is visibly deterministic: a DeriveSeed
# derivation, anything mentioning "seed" (config.seed, root_seed, ...),
# or a plain integer literal.
SEED_OK_RE = re.compile(r"DeriveSeed|seed", re.IGNORECASE)
INT_LITERAL_RE = re.compile(r"^\s*(?:0[xX][0-9a-fA-F']+|[0-9][0-9']*)"
                            r"(?:[uU]?[lL]{0,2})?\s*$")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure, so rule regexes never fire on documentation or log
    messages. NOLINT escapes are read from the raw lines instead."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal: skip to its matched delimiter.
                if out and out[-1] == "R":
                    m = re.match(r'"([^()\s\\]{0,16})\(', text[i:])
                    if m:
                        end = text.find(")" + m.group(1) + '"', i)
                        if end == -1:
                            end = n - 1
                        chunk = text[i:end + len(m.group(1)) + 2]
                        out.append("".join(ch if ch == "\n" else " "
                                           for ch in chunk))
                        i += len(chunk)
                        continue
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def match_angle_brackets(text, start):
    """`start` indexes the '<' opening a template argument list;
    returns the index one past its matching '>', or -1."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def match_parens(text, start):
    """`start` indexes '('; returns (index past matching ')', inner
    text) or (-1, '')."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1, text[start + 1:i]
    return -1, ""


def collect_unordered_names(clean):
    """Names of variables declared in this file with an unordered
    container type (directly or through a local using-alias)."""
    names = set()
    alias_names = set()
    for m in UNORDERED_ALIAS_RE.finditer(clean):
        alias_names.add(m.group(1))
    decl_type_res = [UNORDERED_DECL_RE]
    if alias_names:
        decl_type_res.append(
            re.compile(r"\b(?:" + "|".join(sorted(alias_names)) + r")\b"))
    for type_re in decl_type_res:
        for m in type_re.finditer(clean):
            end = m.end()
            if clean[end - 1] == "<" or (end < len(clean)
                                         and clean[end:end + 1] == "<"
                                         and type_re is not UNORDERED_DECL_RE):
                close = match_angle_brackets(clean, m.end() - 1)
                if close == -1:
                    continue
                rest = clean[close:]
            else:
                rest = clean[end:]
            dm = re.match(r"\s*(?:&|\*)?\s*(\w+)\s*[;={(\[]", rest)
            if dm and dm.group(1) not in ("const", "return", "operator"):
                names.add(dm.group(1))
    return names


def line_of(text, index):
    return text.count("\n", 0, index) + 1


def path_is_test(relpath):
    parts = relpath.split("/")
    return "tests" in parts or os.path.basename(relpath).endswith("_test.cc")


def path_has_suffix(relpath, suffixes):
    return any(relpath.endswith(s) for s in suffixes)


def nolint_reason(raw_lines, line_no):
    """The NOLINT-DETERMINISM escape covering `line_no` (1-based), as
    (found, reason)."""
    for candidate in (line_no, line_no - 1):
        if 1 <= candidate <= len(raw_lines):
            m = NOLINT_RE.search(raw_lines[candidate - 1])
            if m:
                return True, m.group(1).strip()
    return False, ""


def lint_file(path, relpath):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        print(f"determinism_lint: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)

    raw_lines = text.splitlines()
    clean = strip_comments_and_strings(text)
    findings = []
    suppressed_nolints = set()  # line numbers whose escape was consumed

    def report(index_or_line, rule, message, by_line=False):
        line_no = index_or_line if by_line else line_of(clean, index_or_line)
        found, reason = nolint_reason(raw_lines, line_no)
        if found:
            if reason:
                suppressed_nolints.add(line_no)
                return
            findings.append(Finding(
                relpath, line_no, "nolint-empty-reason",
                "NOLINT-DETERMINISM must carry a justification: "
                "NOLINT-DETERMINISM(<why this cannot be deterministic>)"))
            return
        findings.append(Finding(relpath, line_no, rule, message))

    # --- universal bans -------------------------------------------------
    for m in RAW_RAND_RE.finditer(clean):
        report(m.start(), "raw-rand",
               "rand()/srand() is unseeded global state; draw through "
               "RandomEngine (src/util/random.h)")
    for m in RANDOM_DEVICE_RE.finditer(clean):
        report(m.start(), "random-device",
               "std::random_device is an entropy source; all gMark "
               "randomness must derive from the config seed")

    # --- raw engines outside util/random -------------------------------
    if not path_has_suffix(relpath, RNG_ALLOWED_SUFFIXES):
        for m in RAW_ENGINE_RE.finditer(clean):
            report(m.start(), "raw-engine",
                   "construct RandomEngine (src/util/random.h) instead of "
                   "a raw std:: engine, so seeding stays auditable")

    # --- clock reads outside util/timer ---------------------------------
    if not path_has_suffix(relpath, CLOCK_ALLOWED_SUFFIXES):
        for m in CLOCK_READ_RE.finditer(clean):
            report(m.start(), "clock-read",
                   "read time through WallTimer (src/util/timer.h) — one "
                   "clock for spans, benches, and budgets; never in a "
                   "merge order or output path")

    # --- unordered-container iteration (src only) -----------------------
    if not path_is_test(relpath):
        names = collect_unordered_names(clean)
        if names:
            alt = "|".join(sorted(re.escape(n) for n in names))
            range_for_re = re.compile(
                r"for\s*\([^;()]*:\s*(?:\*|&)?\s*(?:this\s*->\s*)?"
                r"(?:" + alt + r")\s*\)")
            # Only begin/rbegin: comparing find() against end() is the
            # standard membership idiom and never iterates.
            begin_re = re.compile(
                r"\b(?:" + alt + r")\s*\.\s*c?r?begin\s*\(")
            for m in range_for_re.finditer(clean):
                report(m.start(), "unordered-iter",
                       "iteration order of an unordered container is a "
                       "hash-seed artifact; sort first (or use a vector / "
                       "ordered map) before anything order-dependent")
            for m in begin_re.finditer(clean):
                report(m.start(), "unordered-iter",
                       "iterator walk over an unordered container; sort "
                       "keys first before anything order-dependent")

    # --- locale-dependent text formatting (src only) -------------------
    if not path_is_test(relpath):
        for m in STREAM_FORMAT_RE.finditer(clean):
            report(m.start(), "stream-format",
                   "streams and printf format numbers through the locale "
                   "and format flags; append with StrAppend and "
                   "FormatDouble/FormatFixed (src/util/string_util.h)")

    # --- RandomEngine seeding discipline (production code only: tests
    # --- seed engines from fixture params, which is already
    # --- deterministic) -------------------------------------------------
    if not (path_has_suffix(relpath, RNG_ALLOWED_SUFFIXES)
            or path_is_test(relpath)):
        for m in RANDOM_ENGINE_USE_RE.finditer(clean):
            rest = clean[m.end():]
            dm = re.match(r"\s*(\w+)?\s*(\(|\{|;)", rest)
            if not dm:
                continue  # e.g. RandomEngine& parameter, RandomEngine* ...
            name, opener = dm.group(1), dm.group(2)
            if name in ("rng_", ):  # member declaration handled by type use
                continue
            if opener == ";":
                if name:  # `RandomEngine eng;` — default seed
                    report(m.start(), "rng-default-seed",
                           "RandomEngine default seed hides a missing "
                           "DeriveSeed(root, coords...) derivation")
                continue
            open_idx = m.end() + dm.start(2)
            close_idx, arg = (match_parens(clean, open_idx) if opener == "("
                              else (-1, ""))
            if opener == "{":
                # brace-init: find matching '}' crudely via parens logic
                depth, j = 0, open_idx
                while j < len(clean):
                    if clean[j] == "{":
                        depth += 1
                    elif clean[j] == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                arg = clean[open_idx + 1:j] if j < len(clean) else ""
                close_idx = j
            if close_idx == -1:
                continue
            arg_stripped = arg.strip()
            if not name and not arg_stripped:
                continue  # `RandomEngine()` in a type context / sizeof
            if not arg_stripped:
                report(m.start(), "rng-default-seed",
                       "RandomEngine default seed hides a missing "
                       "DeriveSeed(root, coords...) derivation")
            elif not (SEED_OK_RE.search(arg_stripped)
                      or INT_LITERAL_RE.match(arg_stripped)):
                report(m.start(), "rng-underived-seed",
                       "seed expression is neither a literal, a *seed* "
                       "value, nor DeriveSeed(...) — derive task seeds "
                       "from logical coordinates (src/util/random.h)")

    # --- unconsumed-but-empty NOLINT escapes ----------------------------
    for i, raw in enumerate(raw_lines, start=1):
        m = NOLINT_RE.search(raw)
        if m and not m.group(1).strip():
            already = any(f.line == i and f.rule == "nolint-empty-reason"
                          for f in findings)
            covers_next = any(f.line == i + 1 for f in findings)
            if not already and not covers_next:
                findings.append(Finding(
                    relpath, i, "nolint-empty-reason",
                    "NOLINT-DETERMINISM must carry a justification: "
                    "NOLINT-DETERMINISM(<why this cannot be "
                    "deterministic>)"))
    return findings


def iter_files(paths):
    for p in paths:
        if os.path.isfile(p):
            yield p
        elif os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(d for d in dirs
                                 if d not in ("build", ".git")
                                 and not d.startswith("build-"))
                for name in sorted(files):
                    if os.path.splitext(name)[1] in CXX_EXTENSIONS:
                        yield os.path.join(root, name)
        else:
            print(f"determinism_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("-")]
    if any(a in ("-h", "--help") for a in argv[1:]):
        print(__doc__)
        return 0
    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not args:
        args = [os.path.join(repo_root, "src"),
                os.path.join(repo_root, "tests")]
    findings = []
    checked = 0
    for path in iter_files(args):
        rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
        if rel.startswith(".."):
            rel = path.replace(os.sep, "/")
        findings.extend(lint_file(path, rel))
        checked += 1
    for f in findings:
        print(f)
    label = "file" if checked == 1 else "files"
    if findings:
        print(f"determinism_lint: {len(findings)} finding(s) in "
              f"{checked} {label}", file=sys.stderr)
        return 1
    print(f"determinism_lint: clean ({checked} {label})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
