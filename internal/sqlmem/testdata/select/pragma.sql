PRAGMA table_info("t")
