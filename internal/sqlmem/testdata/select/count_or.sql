SELECT COUNT(*) FROM "t" WHERE "n" < 3 OR "n" > 5
