"""Regression fixture: an observer hook that schedules an event.  No
per-file rule covers observer registration, so v1 is clean; the purity
pass must prove ``bad_hook`` impure and flag the registration site."""


class Env:
    def subscribe(self, point, fn):
        pass

    def schedule(self, ev):
        pass


def bad_hook(env, ev):
    env.schedule(ev)


def install(env):
    env.subscribe("fs.read", bad_hook)
