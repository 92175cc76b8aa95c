from metafold.env import Environment


class RecordingEntries(dict):
    """Entries that record every key read through `get`, `[]` or `in`.

    An Environment built over them sees a component's reads whether it calls
    `env.get` or reads `env.entries` itself, and so does every Environment a
    draw derives, as a draw keeps the entries object. A put copies the
    entries into a plain dict, so reads after a component's own put are not
    seen.
    """

    def __init__(self, entries):
        super().__init__(entries)
        self.reads = set()

    def get(self, key, default=None):
        self.reads.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads.add(key)
        return super().__contains__(key)


def accesses(component, payload, env):
    """(reads, writes) of `component(payload, env)`: the keys it reads from
    `env`'s entries, and the keys of its output env that are new or hold a
    value that is not the object `env` held."""
    entries = RecordingEntries(env.entries)
    _, out = component(payload, Environment(entries, env.rng))
    before = env.entries
    writes = {k for k, v in out.entries.items() if k not in before or before[k] is not v}
    return entries.reads, writes
