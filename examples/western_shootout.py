#!/usr/bin/env python3
"""Formula (B) of paper §2.4: John Wayne shoots a bandit.

Asserted at the frame level of a 4-level western, the query asks for a
frame where John Wayne and a bandit both hold guns, eventually followed
by a frame where he fires at that same bandit, eventually followed by a
frame with that bandit on the floor.  The whole-movie query wraps it with
``type() = 'western' and at_frame_level(...)`` — the paper's extended
conjunctive example — and we rank a small movie library with it.

Run:  python examples/western_shootout.py
"""

from repro import RetrievalEngine, parse
from repro.shard import ShardedCorpus
from repro.workloads.movies import example_database

FORMULA_B = """
exists x, y .
  (present(x) and present(y)
   and name(x) = 'John Wayne' and type(y) = 'bandit'
   and holds_gun(x) and holds_gun(y))
  and eventually ((present(x) and present(y) and fires_at(x, y))
    and eventually (present(y) and on_floor(y)))
"""

WHOLE_MOVIE_QUERY = (
    "type() = 'western' and at_frame_level(" + FORMULA_B + ")"
)


def main() -> None:
    database = example_database()
    engine = RetrievalEngine()

    # 1. The frame-level formula over the western's frame sequence.
    western = database.get("western")
    frame_level = western.level_of("frame")
    formula_b = parse(FORMULA_B)
    frames = engine.evaluate_video(formula_b, western, level=frame_level)
    print("Formula (B) over the western's frames:")
    for entry in frames:
        print(
            f"  frames [{entry.begin}, {entry.end}]: "
            f"similarity {entry.actual:g} / {frames.maximum:g}"
        )
    best = max(frames, key=lambda entry: entry.actual)
    print(
        f"  -> best match starts at frame {best.begin} "
        f"({best.actual / frames.maximum:.0%} of a perfect match)\n"
    )

    # 2. The extended conjunctive whole-movie query, ranked across the
    #    library (paper §1: top-k retrieval).  Each video is one
    #    segment at level 1, so ranking that level ranks whole videos.
    query = parse(WHOLE_MOVIE_QUERY)
    corpus = ShardedCorpus.from_database(database)
    print("Ranking the library with the whole-movie query:")
    for hit in corpus.top_k(engine, query, k=4, level=1):
        print(
            f"  {hit.video:<16} similarity {hit.actual:6.3f} / "
            f"{hit.maximum:g}  ({hit.fraction:.0%})"
        )
    print()

    # 3. Show partial matching at work: a movie without the shoot-out
    #    still scores on the 'western' type condition alone.
    prairie = database.get("prairie-dust")
    value = engine.evaluate_at_root(query, prairie)
    print(
        f"'prairie-dust' has no shoot-out but is a western: "
        f"partial similarity {value.actual:g} / {value.maximum:g}"
    )


if __name__ == "__main__":
    main()
