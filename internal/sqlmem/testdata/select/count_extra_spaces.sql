SELECT COUNT(*) FROM "t" WHERE "n"  <   3
