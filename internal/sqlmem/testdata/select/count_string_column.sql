SELECT COUNT(*) FROM "t" WHERE "name" < 3
