"""Naive Deep-Research agent policies (the paper's ``CodeAgent`` baseline).

These scripted policies reproduce the failure modes the paper documents for
open Deep Research agents on data lakes:

- **keyword shortcuts**: files are ranked by naive filename keyword overlap
  and emails are grepped with a regex, rather than read exhaustively;
- **bounded diligence**: only a handful of files/emails are actually read
  ("an agent may ... give up on reading the dataset after the fourth or
  fifth file");
- **manual verification**: the agent trusts what it personally read, which
  keeps precision high and recall low on the Enron query, and produces
  spurious ratios from non-ground-truth files on the Kramabench query.

Randomness (tie-breaking among equally-ranked files, which candidates get
read, occasional verification mistakes) is drawn from the episode's seeded
RNG, so three trials vary like the paper's three runs.
"""

from __future__ import annotations

import json
import re

from repro.agents.policies.base import AgentPolicy
from repro.agents.tools import ToolRegistry
from repro.agents.trace import AgentTrace
from repro.data.tabular import extract_numbers
from repro.utils.text import STOPWORDS, tokenize

#: Marker the generated read loops print before each file's contents.
OBS_FILE_MARKER = "<<<FILE>>>"


def filename_tokens(filename: str) -> set[str]:
    """Tokenize a filename for keyword matching (underscores split words)."""
    return set(tokenize(filename.replace("_", " ").replace(".", " ")))


def split_file_sections(observation: str) -> dict[str, str]:
    """Recover {filename: text} from a batched-read observation."""
    sections: dict[str, str] = {}
    for part in observation.split(OBS_FILE_MARKER)[1:]:
        lines = part.splitlines()
        if not lines:
            continue
        name = lines[0].strip()
        sections[name] = "\n".join(lines[1:])
    return sections


def read_batch_code(filenames: list[str], max_chars: int = 1500) -> str:
    """Generate the code for reading a batch of files."""
    return (
        f"for f in {json.dumps(filenames)}:\n"
        f"    print({OBS_FILE_MARKER!r}, f)\n"
        f"    print(read_file(f)[:{max_chars}])\n"
    )


def find_year_value(text: str, year: int) -> float | None:
    """Extract "the" statistic for ``year`` from file text, naively.

    Tries a CSV parse first (column whose header mentions identity theft),
    then falls back to grabbing the largest number on a line mentioning the
    year.  This is deliberately the kind of simplistic extraction the paper
    observes agents writing.
    """
    lines = text.splitlines()
    column = None
    header_index = None
    for index, line in enumerate(lines[:5]):
        cells = [cell.strip() for cell in line.split(",")]
        for position, cell in enumerate(cells):
            if "identity theft" in cell.lower():
                column, header_index = position, index
                break
        if column is not None:
            break
    if column is not None and column > 0:
        for line in lines[header_index + 1 :]:
            cells = [cell.strip() for cell in line.split(",")]
            if cells and cells[0].startswith(str(year)) and len(cells) > column:
                numbers = extract_numbers(cells[column])
                if numbers:
                    return numbers[0]
    year_re = re.compile(rf"(?<!\d){year}(?!\d)")
    for line in lines:
        if year_re.search(line):
            numbers = [
                value
                for value in extract_numbers(year_re.sub(" ", line))
                if value >= 100
            ]
            if numbers:
                return max(numbers)
    return None


class KramabenchCodeAgentPolicy(AgentPolicy):
    """Naive agent for "compute the ratio of X in YEAR_A vs YEAR_B" tasks."""

    def __init__(self, n_candidates: int = 6, batch_size: int = 2) -> None:
        self.n_candidates = n_candidates
        self.batch_size = batch_size

    def reset(self, task, rng):
        super().reset(task, rng)
        self.state = "list"
        self.candidates: list[str] = []
        self.read_sections: dict[str, str] = {}
        self.years = sorted(int(y) for y in re.findall(r"\b((?:19|20)\d{2})\b", task))

    # ------------------------------------------------------------------

    def next_code(self, task: str, trace: AgentTrace, tools: ToolRegistry) -> str | None:
        if self.state == "list":
            self.state = "rank"
            return "import json\nfiles = list_files()\nprint(json.dumps(files))\n"
        if self.state == "rank":
            self._rank(task, trace)
            self.state = "reading"
            self._cursor = 0
        if self.state == "reading":
            if self._cursor < len(self.candidates):
                batch = self.candidates[self._cursor : self._cursor + self.batch_size]
                self._cursor += len(batch)
                return read_batch_code(batch)
            self.state = "analyze"
        if self.state == "analyze":
            return self._analyze_or_second_pass(trace)
        if self.state == "second_pass_analyze":
            return self._final_from_sections(trace, allow_cross_file=True)
        return None

    # ------------------------------------------------------------------

    def _rank(self, task: str, trace: AgentTrace) -> None:
        files = json.loads(trace.last_observation())
        self.all_files = files
        keywords = self._naive_keywords(task, files)
        # The second-pass search phrase is even shorter: just the leading
        # statistic words ("identity theft"), as a hurried searcher types.
        self._stat_tokens = [kw for kw in keywords if not kw.isdigit()][:2]
        scored: list[tuple[int, str]] = []
        for filename in files:
            name_tokens = filename_tokens(filename)
            scored.append((sum(1 for kw in keywords if kw in name_tokens), filename))
        best = max(score for score, _ in scored) if scored else 0
        top = [name for score, name in scored if score == best]
        runner_up = [name for score, name in scored if score == best - 1]
        self.rng.shuffle(top)
        self.rng.shuffle(runner_up)
        self.candidates = (top + runner_up)[: self.n_candidates]

    def _naive_keywords(self, task: str, files: list[str]) -> list[str]:
        """First few task tokens that actually appear in some filename.

        Truncating the keyword list is the "shortcut": the agent anchors on
        the first stat it cares about and drops later qualifiers (here,
        typically the second year).
        """
        file_tokens = set()
        for filename in files:
            file_tokens.update(filename_tokens(filename))
        seen: list[str] = []
        for token in tokenize(task):
            if token in STOPWORDS or len(token) < 3:
                continue
            if token in file_tokens and token not in seen:
                seen.append(token)
        return seen[:4]

    def _collect_sections(self, trace: AgentTrace) -> None:
        for observation in trace.observations():
            self.read_sections.update(split_file_sections(observation))

    def _analyze_or_second_pass(self, trace: AgentTrace) -> str:
        self._collect_sections(trace)
        code = self._final_from_sections(trace, allow_cross_file=False)
        if code is not None:
            return code
        # No single file gave both years: search filenames for the earlier
        # year, prefer ones that also name the statistic, and read one.
        early = str(min(self.years)) if self.years else "2001"
        with_year = [
            name
            for name in getattr(self, "all_files", [])
            if early in name and name not in self.read_sections
        ]
        if with_year:
            # Rank by overlap with the statistic words used during ranking.
            stat_tokens = set(getattr(self, "_stat_tokens", []))
            scored = [
                (sum(1 for token in stat_tokens if token in filename_tokens(name)), name)
                for name in with_year
            ]
            best = max(score for score, _ in scored)
            top = sorted(name for score, name in scored if score == best)
            choice = self.rng.choice(top)
            self.state = "second_pass_analyze"
            return read_batch_code([choice], max_chars=3000)
        self.state = "second_pass_analyze"
        return "print('no additional candidate files found')\n"

    def _final_from_sections(self, trace: AgentTrace, allow_cross_file: bool) -> str | None:
        self._collect_sections(trace)
        if len(self.years) < 2:
            return "final_answer(None)\n"
        early, late = self.years[0], self.years[-1]
        for filename, text in self.read_sections.items():
            value_early = find_year_value(text, early)
            value_late = find_year_value(text, late)
            if value_early and value_late:
                return (
                    f"v_early = {value_early!r}\n"
                    f"v_late = {value_late!r}\n"
                    f"final_answer({{'ratio': v_late / v_early, "
                    f"'source': {filename!r}}})\n"
                )
        if not allow_cross_file:
            return None
        # Premature fallback: combine values from different files.
        value_early = value_late = None
        source_early = source_late = None
        for filename, text in self.read_sections.items():
            if value_early is None:
                value_early = find_year_value(text, early)
                source_early = filename
            if value_late is None:
                value_late = find_year_value(text, late)
                source_late = filename
        if value_early and value_late:
            return (
                f"final_answer({{'ratio': {value_late!r} / {value_early!r}, "
                f"'source': {source_late!r} + ' & ' + {source_early!r}}})\n"
            )
        return "final_answer(None)\n"


class EnronCodeAgentPolicy(AgentPolicy):
    """Naive agent for "return all emails matching <predicates>" tasks.

    Greps for deal keywords with a regex (cheap, high-recall candidate
    generation), then manually reads a bounded number of candidates and
    returns only those it personally verified — high precision, low recall.
    """

    #: Words whose presence marks a forwarded/news email during "reading".
    FORWARD_MARKERS = ("forwarded message", "reports that", "article", "fw:")

    #: Business cues whose presence convinces the reader it is firsthand.
    BUSINESS_CUES = (
        "transaction", "term sheet", "counterparty", "hedge", "restructuring",
        "valuation", "collateral", "unwind", "mark-to-market", "funding schedule",
    )

    #: Candidates read at most, files per read step, and the chance of a
    #: verification mistake per read candidate.
    DILIGENCE = 42
    BATCH_SIZE = 8
    MISTAKE_RATE = 0.08

    def reset(self, task, rng):
        super().reset(task, rng)
        self.state = "grep"
        self.to_read: list[str] = []
        self.included: list[str] = []

    def next_code(self, task: str, trace: AgentTrace, tools: ToolRegistry) -> str | None:
        if self.state == "grep":
            self.state = "select"
            pattern = "|".join(self._deal_keywords(task))
            return (
                "import json, re\n"
                "files = list_files()\n"
                "hits = []\n"
                f"pattern = re.compile({pattern!r}, re.IGNORECASE)\n"
                "for f in files:\n"
                "    if pattern.search(read_file(f)):\n"
                "        hits.append(f)\n"
                "print(json.dumps(hits))\n"
            )
        if self.state == "select":
            hits = json.loads(trace.last_observation())
            self.rng.shuffle(hits)
            self.to_read = hits[: self.DILIGENCE]
            self.state = "reading"
            self.read_cursor = 0
        if self.state == "reading":
            self._verify_from(trace)
            if self.read_cursor < len(self.to_read):
                batch = self.to_read[self.read_cursor : self.read_cursor + self.BATCH_SIZE]
                self.read_cursor += len(batch)
                return read_batch_code(batch, max_chars=500)
            self.state = "final"
            return (
                f"verified = {json.dumps(sorted(self.included))}\n"
                "final_answer(verified)\n"
            )
        return None

    def _deal_keywords(self, task: str) -> list[str]:
        """Pull candidate deal names from the task's parenthetical."""
        match = re.search(r"e\.g\.,([^)]*)\)", task)
        if match:
            names = [name.strip().lower() for name in match.group(1).split(",")]
            return [name for name in names if name]
        # Fall back to capitalized mid-sentence words.
        names = re.findall(r"(?<!^)(?<!\. )\b([A-Z][a-z]{3,})\b", task)
        return [name.lower() for name in names] or ["transaction"]

    def _verify_from(self, trace: AgentTrace) -> None:
        """Manually "read" the last batch and keep plausible emails."""
        if not trace.steps:
            return
        sections = split_file_sections(trace.steps[-1].observation)
        for filename, text in sections.items():
            lowered = text.lower()
            is_forwarded = any(marker in lowered for marker in self.FORWARD_MARKERS)
            has_business_cue = any(cue in lowered for cue in self.BUSINESS_CUES)
            include = has_business_cue and not is_forwarded
            if self.rng.chance(self.MISTAKE_RATE):
                include = not include
            if include:
                self.included.append(filename)
