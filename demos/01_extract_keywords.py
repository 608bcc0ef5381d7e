"""Grow a deviant keyword/blog set from a handful of seed phrases.

Builds a small synthetic query log with four planted "waves" of topic
vocabulary, then runs the iterative expansion: match queries against the
current keywords, keep blogs with enough matching clicks, adopt the full
query vocabulary of the top decile of those blogs, repeat to a fixed point.
"""

import tempfile
from pathlib import Path

from devgraph.expansion import extract_deviant_graph
from devgraph.ingest import read_query_log
from devgraph.synth import SynthConfig, closure_fixture

cfg = SynthConfig(seed=7, n_producer_one=12, n_producer_two=12,
                  n_bridge_one=10, n_bridge_two=10, n_outer=30,
                  posts_per_producer=1)
fx = closure_fixture(cfg)

with tempfile.TemporaryDirectory() as tmp:
    log_path = Path(tmp) / "queries.tsv"
    log_path.write_text("\n".join(fx.log_lines) + "\n", encoding="utf-8")
    log = read_query_log(str(log_path))

print(f"log rows:     {log.pair_clicks.sum()}")
print(f"seed phrases: {sorted(fx.seed_phrases)}")

result = extract_deviant_graph(fx.seed_phrases, log)

print(f"\nconverged after {result.iterations_run} iterations")
print("iter  keywords  blogs  matching-queries")
for row in result.trajectory:
    print(f"{row.iteration:4d}  {row.keywords:8d}  {row.blogs:5d}  {row.queries:16d}")

print(f"\nfinal vocabulary ({len(result.state.keywords)} keywords):")
for kw in sorted(result.state.keywords):
    print(f"  {kw}")
print(f"\nblogs captured: {len(result.state.blogs)} "
      f"(planted waves held {sum(len(w) for w in fx.deviant_blogs_by_wave)})")
