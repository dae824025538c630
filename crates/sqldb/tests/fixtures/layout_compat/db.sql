-- perfbase embedded database dump
-- wal-checkpoint-seq: 9
CREATE TABLE col (id INTEGER NOT NULL, fs TEXT, bw FLOAT) USING COLUMNAR;
INSERT INTO col VALUES (1, 'ufs', 214.516), (2, 'nfs', NULL), (3, NULL, 0.5), (4, 'ufs', 1.25), (5, 'pvfs', 88.0), (6, E'tab\there', 3.0);
CREATE INDEX ix_col_id ON col (id);
CREATE TABLE plain (id INTEGER NOT NULL, note TEXT, v FLOAT, ok BOOLEAN, at TIMESTAMP);
INSERT INTO plain VALUES (1, 'it''s;tricky', 1.5, TRUE, 1101234630), (2, NULL, NULL, FALSE, 0), (3, 'plain', -0.25, NULL, 100), (4, '', 1e300, TRUE, NULL), (5, E'line one\nline\ttwo \\ back''quote', -0.0, FALSE, 86400);
CREATE ORDERED INDEX ox_plain_v ON plain (v);
