from reachpkg.mod import used
used()
