SELECT "id", "name" FROM "t"
