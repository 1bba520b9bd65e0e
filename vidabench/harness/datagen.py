"""Seeded inputs. The generator keeps every column it wrote, so each query's
expected answer is computed in plain Python, never by the engine under test."""

from __future__ import annotations

import bisect
import itertools
import json
import os
import random

FILLER = 16          # c0..c15 beside id,a,b,g,fk: the 21-column integer CSV
A_RANGE = 1_000_000  # wide enough that a fresh literal is a fresh query text
ITEMS = 6            # nested items per JSON object


class Dataset:
    """CSV ``T`` (``rows`` x 21 integers) and nested NDJSON ``D`` (``dims``
    objects) that ``T.fk`` joins to on ``D.k``; row counts and value ranges
    do not depend on the seed, only the values do."""

    def __init__(self, directory: str, seed: int, rows: int, dims: int):
        rng = random.Random(seed)
        self.rng = rng
        self.dims = dims
        self.csv = os.path.join(directory, "t.csv")
        self.json = os.path.join(directory, "d.json")
        self.id = list(range(rows))
        rng.shuffle(self.id)
        self.a = rng.choices(range(A_RANGE), k=rows)
        self.b = rng.choices(range(100), k=rows)
        self.g = rng.choices(range(16), k=rows)
        self.fk = rng.choices(range(dims), k=rows)
        self.c = [rng.choices(range(1000), k=rows) for _ in range(FILLER)]
        self.w = rng.choices(range(100), k=dims)
        self.items = [[(rng.randrange(100), rng.randrange(100))
                       for _ in range(ITEMS)] for _ in range(dims)]
        self.rows_text = self._row_texts(0, rows)
        self.write(self.csv, self.csv_text())
        self.write(self.json, self.json_lines(0, dims))

    # -- files ---------------------------------------------------------------

    @staticmethod
    def write(path: str, text: str, mode: str = "w") -> None:
        with open(path, mode) as fh:
            fh.write(text)

    @property
    def rows(self) -> int:
        return len(self.id)

    def _row_texts(self, lo: int, hi: int) -> list[str]:
        cols = [col[lo:hi] for col in
                (self.id, self.a, self.b, self.g, self.fk, *self.c)]
        return [",".join(map(str, row)) + "\n" for row in zip(*cols)]

    def csv_text(self) -> str:
        header = "id,a,b,g,fk," + ",".join(f"c{i}" for i in range(FILLER))
        return header + "\n" + "".join(self.rows_text)

    def json_lines(self, lo: int, hi: int) -> str:
        return "".join(json.dumps({
            "k": k, "w": self.w[k], "tier": k % 3,
            "items": [{"v": v, "q": q} for v, q in self.items[k]],
        }) + "\n" for k in range(lo, hi))

    def grow_csv(self, count: int) -> str:
        """Extend the columns by ``count`` fresh rows; returns their text
        (the caller appends it to the file when its schedule says so)."""
        rng, lo = self.rng, self.rows
        self.id.extend(range(lo, lo + count))
        self.a.extend(rng.choices(range(A_RANGE), k=count))
        self.b.extend(rng.choices(range(100), k=count))
        self.g.extend(rng.choices(range(16), k=count))
        self.fk.extend(rng.choices(range(self.dims), k=count))
        for col in self.c:
            col.extend(rng.choices(range(1000), k=count))
        tail = self._row_texts(lo, lo + count)
        self.rows_text += tail
        return "".join(tail)

    def rewrite_first_row(self) -> str:
        """Change one value in place; returns the whole new file text."""
        self.b[0] = (self.b[0] + 1) % 100
        self.rows_text[0] = self._row_texts(0, 1)[0]
        return self.csv_text()

    def grow_json(self, count: int) -> str:
        rng, lo = self.rng, len(self.w)
        self.w.extend(rng.choices(range(100), k=count))
        self.items.extend([(rng.randrange(100), rng.randrange(100))
                           for _ in range(ITEMS)] for _ in range(count))
        return self.json_lines(lo, lo + count)

    # -- expected answers (brute force; fine for a handful of queries) ---------

    def sum_where(self, out: list, by: list, lo: int) -> int:
        return sum(o for o, v in zip(out, by) if v >= lo)

    def join_sum_w(self, by: list, lo: int) -> int:
        w = self.w
        return sum(w[k] for k, v in zip(self.fk, by) if v >= lo)

    def items_sum_v(self, q_lo: int) -> int:
        return sum(v for obj in self.items for v, q in obj if q >= q_lo)

    def count_w(self, lo: int) -> int:
        return sum(1 for w in self.w if w >= lo)


class QueryStream:
    """The ad-hoc template pool over a :class:`Dataset`, with O(log n)
    expected answers so checking 2000 queries costs less than running them.

    Five templates in equal shares: selective filter+fold, point lookup,
    range count, IN-list, 2-way join. (SQL GROUP BY is left out: the SQL
    layer encodes it as correlated comprehensions that re-scan the raw
    file, which would break the workload's raw_bytes = 0 invariant.)"""

    TEMPLATES = ("fold", "point", "range", "in", "join")

    def __init__(self, data: Dataset):
        self.data = data
        order = sorted(range(data.rows), key=data.a.__getitem__)
        self.sorted_a = [data.a[i] for i in order]
        self.prefix_b = [0, *itertools.accumulate(data.b[i] for i in order)]
        self.prefix_w = [0, *itertools.accumulate(
            data.w[data.fk[i]] for i in order)]
        self.by_id = {data.id[i]: i for i in range(data.rows)}

    def _tail(self, prefix: list, lo: int) -> int:
        return prefix[-1] - prefix[bisect.bisect_left(self.sorted_a, lo)]

    def make(self, template: str, rng: random.Random) -> tuple[str, str, object]:
        """One query with a literal drawn from ``rng``: (comprehension, SQL,
        expected value)."""
        d = self.data
        if template in ("fold", "join"):
            x = rng.randrange(A_RANGE * 95 // 100, A_RANGE * 99 // 100)
            if template == "fold":
                return (f"for {{ t <- T, t.a >= {x} }} yield sum t.b",
                        f"SELECT SUM(b) AS s FROM T WHERE a >= {x}",
                        self._tail(self.prefix_b, x))
            return (f"for {{ t <- T, d <- D, t.fk = d.k, t.a >= {x} }} "
                    "yield sum d.w",
                    "SELECT SUM(d.w) AS s FROM T t JOIN D d ON t.fk = d.k "
                    f"WHERE t.a >= {x}",
                    self._tail(self.prefix_w, x))
        if template == "point":
            x = rng.randrange(d.rows)
            i = self.by_id[x]
            return (f"for {{ t <- T, t.id = {x} }} "
                    "yield bag (a := t.a, b := t.b)",
                    f"SELECT a, b FROM T WHERE id = {x}",
                    [{"a": d.a[i], "b": d.b[i]}])
        if template == "range":
            x = rng.randrange(A_RANGE * 9 // 10)
            y = x + A_RANGE // 100
            n = bisect.bisect_left(self.sorted_a, y) \
                - bisect.bisect_left(self.sorted_a, x)
            return (f"for {{ t <- T, t.a >= {x}, t.a < {y} }} yield count 1",
                    f"SELECT COUNT(*) AS c FROM T WHERE a >= {x} AND a < {y}",
                    n)
        if template == "in":
            xs = sorted(rng.sample(range(d.rows), 3))
            lit = ", ".join(map(str, xs))
            return (f"for {{ t <- T, t.id in [{lit}] }} yield sum t.b",
                    f"SELECT SUM(b) AS s FROM T WHERE id IN ({lit})",
                    sum(d.b[self.by_id[x]] for x in xs))
        raise ValueError(template)

    def stream(self, seed: int, count: int, fresh: float = 0.4) -> list[tuple]:
        """``count`` queries in seeded order. Exact shares, so that every
        seed gives the same mix: each template a fifth, and of each
        template's queries ``fresh`` carry a new literal while the rest
        repeat an earlier text of that template."""
        rng = random.Random(seed)
        per_template = count // len(self.TEMPLATES)
        n_fresh = max(1, round(per_template * fresh))
        slots = [(template, i < n_fresh) for template in self.TEMPLATES
                 for i in range(per_template)]
        rng.shuffle(slots)
        earlier: dict[str, list[tuple]] = {t: [] for t in self.TEMPLATES}
        owed = dict.fromkeys(self.TEMPLATES, 0)   # repeats that came too soon
        out = []
        for template, is_fresh in slots:
            texts = earlier[template]
            if not is_fresh and not texts:
                is_fresh, owed[template] = True, owed[template] + 1
            elif is_fresh and owed[template]:
                is_fresh, owed[template] = False, owed[template] - 1
            if is_fresh:
                texts.append(self.make(template, rng))
                out.append(texts[-1])
            else:
                out.append(texts[rng.randrange(len(texts))])
        return out
