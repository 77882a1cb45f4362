PRAGMA table_info(
